package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"pythia/internal/core"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/serve"
	"pythia/internal/sim"
	"pythia/internal/topology"
	"pythia/internal/wal"
)

// The traced serve run replays the request stream of an HTTP cycle, in ack
// order, through the public calls the server's batch loop makes for one
// request per batch — decode + ToOps, NovelOps (logical clock), journal
// encode, wal.Append, Engine.RunUntil, ApplyBatch, and on the snapshot
// cadence Snapshot + gob + WriteSnapshot + Compact — against a real journal
// directory, timing each stage; then it recovers from that journal the way
// a restarted server does.

// stageTolerance bounds the stage-accounting check: the sum of the
// per-stage medians must be within this share of the median batch wall
// time, or the stage clocks leave a hole in the batch.
const stageTolerance = 0.15

// stages collects per-batch stage durations (seconds).
type stages struct {
	decode, novel, encode, append, runUntil, apply, wall, snapshot []float64
}

// lapClock tiles a batch into consecutive stages: each lap ends one stage
// and starts the next, so the stages cover the batch without gaps. A
// disabled clock never reads the time.
type lapClock struct {
	on   bool
	last time.Time
}

func (c *lapClock) start() time.Time {
	if c.on {
		c.last = time.Now()
	}
	return c.last
}

func (c *lapClock) lap(dst *[]float64) {
	if !c.on {
		return
	}
	now := time.Now()
	*dst = append(*dst, now.Sub(c.last).Seconds())
	c.last = now
}

// serveStack is the serving stack the batch loop owns, built as serve.New
// builds it.
type serveStack struct {
	cfg   serve.Config
	eng   *sim.Engine
	g     *topology.Graph
	hosts []topology.NodeID
	net   *netsim.Network
	ofc   *openflow.Controller
	py    *core.Pythia
	log   *wal.Log

	virtual    float64
	appliedSeq uint64
	snapSeq    uint64
	payloadB   int
	ops        int
	runUntilS  float64
	pairs      *placedPairs // traced replays only
}

func newServeStack(dir string) (*serveStack, error) {
	cfg := serveConfig(dir, false, nil).Defaults()
	s := &serveStack{cfg: cfg, eng: sim.NewEngine()}
	s.g, s.hosts = topology.FatTree(cfg.FatTreeK, cfg.HostsPerEdge, topology.Gbps)
	s.net = netsim.New(s.eng, s.g)
	s.ofc = openflow.NewController(s.eng, s.net, 0)
	s.py = core.New(s.eng, s.net, s.ofc, core.Config{
		K:              cfg.K,
		Aggregate:      true,
		UseCriticality: true,
		BookingTTL:     sim.Duration(cfg.BookingTTLSec),
		Shards:         cfg.Shards,
	})
	l, err := wal.Open(dir, wal.Options{SegmentBytes: cfg.SegmentBytes, SyncEvery: cfg.FsyncEvery})
	if err != nil {
		return nil, err
	}
	s.log = l
	return s, nil
}

// journalSnapshot mirrors the server's snapshot payload: collector state
// plus the serving plane's continuation values.
type journalSnapshot struct {
	Core       *core.Snapshot
	VirtualSec float64
	Digest     uint64
	Placements int
}

// wireOps raises a request to its journal form, in protocol order
// (reducers, intents, done_jobs) — the order ToOps lowers it in.
func wireOps(req *serve.IngestRequest) []serve.WireOp {
	out := make([]serve.WireOp, 0, requestOps(req))
	for i := range req.Reducers {
		out = append(out, serve.WireOp{Kind: "reducer_up", Reducer: &req.Reducers[i]})
	}
	for i := range req.Intents {
		out = append(out, serve.WireOp{Kind: "intent", Intent: &req.Intents[i]})
	}
	for _, j := range req.DoneJobs {
		out = append(out, serve.WireOp{Kind: "job_done", Job: j})
	}
	return out
}

// batch applies one request as one batch, in the batch loop's order.
func (s *serveStack) batch(body []byte, clk *lapClock, st *stages) error {
	t0 := clk.start()
	var req serve.IngestRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	ops := req.ToOps(s.hosts)
	clk.lap(&st.decode)
	s.virtual += float64(s.py.NovelOps(ops)) / s.cfg.ClockHz
	target := s.virtual
	clk.lap(&st.novel)
	payload, err := json.Marshal(&serve.WireBatch{VirtualSec: target, Ops: wireOps(&req)})
	if err != nil {
		return err
	}
	clk.lap(&st.encode)
	if _, err := s.log.Append(payload); err != nil {
		return err
	}
	clk.lap(&st.append)
	t := time.Now()
	if deadline := sim.Time(target); deadline > s.eng.Now() {
		s.eng.RunUntil(deadline)
	}
	s.runUntilS += time.Since(t).Seconds()
	clk.lap(&st.runUntil)
	s.py.ApplyBatch(ops, s.cfg.Workers)
	clk.lap(&st.apply)
	s.appliedSeq = s.log.NextSeq() - 1
	s.payloadB += len(payload)
	s.ops += len(ops)
	if s.appliedSeq-s.snapSeq >= uint64(s.cfg.SnapshotEvery) {
		if err := s.snapshot(); err != nil {
			return err
		}
		clk.lap(&st.snapshot)
	}
	if clk.on {
		st.wall = append(st.wall, clk.last.Sub(t0).Seconds())
	}
	return nil
}

// snapshot cuts a snapshot through appliedSeq and compacts the journal.
func (s *serveStack) snapshot() error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&journalSnapshot{Core: s.py.Snapshot(), VirtualSec: s.virtual}); err != nil {
		return err
	}
	if err := s.log.WriteSnapshot(s.appliedSeq, buf.Bytes()); err != nil {
		return err
	}
	if _, err := s.log.Compact(s.appliedSeq + 1); err != nil {
		return err
	}
	s.snapSeq = s.appliedSeq
	return nil
}

// recoverFrom rebuilds a stack from dir as a restarted server does: restore
// the latest snapshot and run the engine to its instant, then replay the
// journal tail through ApplyBatch, each record at its journaled instant.
// It returns the restore (decode + Restore) and tail-replay seconds.
func recoverFrom(dir string) (s *serveStack, restoreS, replayS float64, err error) {
	s, err = newServeStack(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	seq, payload, ok, err := s.log.LatestSnapshot()
	if err != nil {
		return nil, 0, 0, err
	}
	from := uint64(1)
	if ok {
		var snap journalSnapshot
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
			return nil, 0, 0, err
		}
		if err := s.py.Restore(snap.Core); err != nil {
			return nil, 0, 0, err
		}
		s.virtual = snap.VirtualSec
		if t := sim.Time(s.virtual); t > s.eng.Now() {
			s.eng.RunUntil(t)
		}
		s.appliedSeq, s.snapSeq = seq, seq
		from = seq + 1
	}
	restoreS = time.Since(t0).Seconds()
	t1 := time.Now()
	err = s.log.Replay(from, func(seq uint64, p []byte) error {
		b := new(serve.WireBatch)
		if err := json.Unmarshal(p, b); err != nil {
			return err
		}
		ops, err := b.ToOps(s.hosts)
		if err != nil {
			return err
		}
		if t := sim.Time(b.VirtualSec); t > s.eng.Now() {
			s.eng.RunUntil(t)
		}
		s.py.ApplyBatch(ops, s.cfg.Workers)
		s.virtual, s.appliedSeq = b.VirtualSec, seq
		return nil
	})
	return s, restoreS, time.Since(t1).Seconds(), err
}

// replay runs every body through a fresh stack, with stage clocks on or
// off, and returns the stack (journal still open) and the wall seconds.
func replay(bodies [][]byte, traced bool, st *stages) (*serveStack, string, float64, error) {
	dir, err := cleanDir("replay-")
	if err != nil {
		return nil, "", 0, err
	}
	s, err := newServeStack(dir)
	if err != nil {
		return nil, dir, 0, err
	}
	if traced {
		s.pairs = watchPlacements(s.py)
	}
	runtime.GC()
	clk := &lapClock{on: traced}
	t0 := time.Now()
	for _, b := range bodies {
		if err := s.batch(b, clk, st); err != nil {
			return nil, dir, 0, err
		}
	}
	return s, dir, time.Since(t0).Seconds(), nil
}

// traceServe runs the traced replay of reqs and reports the serve
// workload's per-layer metrics; ackP50 is the HTTP cycles' median ack
// latency in seconds.
func traceServe(o *outcome, reqs []*serve.IngestRequest, ackP50 float64) error {
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		bodies[i] = b
	}

	// Untraced pass first: the tracing overhead is the traced pass's wall
	// time against it.
	plain, plainDir, untracedS, err := replay(bodies, false, &stages{})
	if err != nil {
		return err
	}
	plain.log.Abort()
	os.RemoveAll(plainDir)

	st := &stages{}
	s, dir, tracedS, err := replay(bodies, true, st)
	defer os.RemoveAll(dir)
	if err != nil {
		return err
	}
	records := s.log.Records()
	before := s.py.Stats()
	s.log.Abort() // the crash: the journal is abandoned unsynced

	// Recovery from the full journal, then a snapshot of the recovered
	// state and a restore from it, each timed on its own.
	runtime.GC()
	rec, _, replayS, err := recoverFrom(dir)
	if err != nil {
		return fmt.Errorf("serve trace: recovery: %w", err)
	}
	o.check(rec.py.Stats() == before, "serve trace: recovered collector counters %+v, before the crash %+v", rec.py.Stats(), before)
	snapS := timed(func() { err = rec.snapshot() })
	rec.log.Abort()
	if err != nil {
		return err
	}
	st.snapshot = append(st.snapshot, snapS)
	runtime.GC()
	restored, restoreS, _, err := recoverFrom(dir)
	if err != nil {
		return fmt.Errorf("serve trace: restore: %w", err)
	}
	restored.log.Abort()
	o.check(restored.py.Stats() == before, "serve trace: restored collector counters %+v, before the crash %+v", restored.py.Stats(), before)

	stageSum := median(st.decode) + median(st.novel) + median(st.encode) + median(st.append) + median(st.runUntil) + median(st.apply)
	wall := median(st.wall)
	o.check(math.Abs(stageSum-wall) <= stageTolerance*wall,
		"serve trace: stage medians sum to %.1f us, median batch wall is %.1f us (tolerance %.0f%%)", stageSum*1e6, wall*1e6, stageTolerance*100)
	o.check(ackP50 >= stageSum, "serve trace: stage medians (%.1f us) exceed the median ack (%.1f us)", stageSum*1e6, ackP50*1e6)

	buildS, err := repeatMedian(9, 20*time.Millisecond, func() (float64, error) {
		return timed(func() { topology.FatTree(s.cfg.FatTreeK, s.cfg.HostsPerEdge, topology.Gbps) }), nil
	})
	if err != nil {
		return err
	}
	o.set("topology.build_ms", buildS*1e3, "ms")
	o.set("topology.ksp_cold_us", kspColdMedian(s.g, s.pairs, s.cfg.K)*1e6, "us")
	o.set("core.aggregates_placed", float64(before.AggregatesPlaced), "count")
	o.set("openflow.rules_installed", float64(s.ofc.RulesInstalled), "count")
	o.set("sim.events", float64(s.eng.Processed), "count")
	o.set("sim.run_s", s.runUntilS, "s")
	o.set("sim.run_self_s", s.runUntilS, "s")
	o.set("netsim.alloc_passes", float64(s.net.AllocPasses), "count")
	o.set("netsim.flows", float64(s.net.CompletedFlows()), "count")
	// The serving path enters the collector through ApplyBatch, not the
	// simulator's Sink and PathResolver seams.
	for _, n := range []string{"core.intent_calls", "openflow.resolve_calls"} {
		o.set(n, 0, "count")
	}
	for _, n := range []string{"core.intent_s", "core.job_done_s", "openflow.resolve_s"} {
		o.set(n, 0, "s")
	}
	o.set("serve.decode_us", median(st.decode)*1e6, "us")
	o.set("core.novel_ops_us", median(st.novel)*1e6, "us")
	o.set("wal.encode_us", median(st.encode)*1e6, "us")
	o.set("wal.append_us", median(st.append)*1e6, "us")
	o.set("sim.run_until_us", median(st.runUntil)*1e6, "us")
	o.set("core.apply_batch_us", median(st.apply)*1e6, "us")
	o.set("serve.stage_sum_us", stageSum*1e6, "us")
	o.set("serve.batch_wall_us", wall*1e6, "us")
	o.set("serve.http_self_us", (ackP50-stageSum)*1e6, "us")
	o.set("core.snapshot_ms", median(st.snapshot)*1e3, "ms")
	o.set("wal.bytes_per_op", float64(s.payloadB)/float64(s.ops), "B")
	o.set("wal.records", float64(records), "count")
	o.set("wal.replay_ms", replayS*1e3, "ms")
	o.set("core.restore_ms", restoreS*1e3, "ms")
	o.set("trace.overhead_pct", overheadPct(tracedS, untracedS), "%")
	return nil
}

// setServeLayersUnused reports the serving-only layers as 0 on a simulator
// workload, which never decodes, journals or batches.
func setServeLayersUnused(o *outcome) {
	for _, n := range []string{"serve.decode_us", "core.novel_ops_us", "wal.encode_us", "wal.append_us",
		"sim.run_until_us", "core.apply_batch_us", "serve.stage_sum_us", "serve.batch_wall_us", "serve.http_self_us"} {
		o.set(n, 0, "us")
	}
	o.set("wal.bytes_per_op", 0, "B")
	o.set("wal.records", 0, "count")
	o.set("wal.replay_ms", 0, "ms")
}
