package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pythia/internal/bench"
	"pythia/internal/serve"
	"pythia/internal/stats"
	"pythia/internal/workload"
)

// The serve-journaled workload: a closed loop of two connections against a
// pythia-serve server on a loopback listener — 4 collector shards, a k=8
// fat-tree fabric, a write-ahead journal synced on every append, the
// default snapshot cadence, and the logical clock (1,000 ops per virtual
// second) so every request's virtual instant is fixed by the trace. Each
// cycle ingests a long open-loop job trace, partitioned by job across the
// two connections so per-job order holds, then kills the server with an
// injected crash before the next journal append and times recovery from
// the full journal.
const (
	// serveTraceOps sizes the trace in operations rather than jobs, so
	// every seed carries about the same work despite heavy-tailed job
	// sizes.
	serveTraceOps = 13000
	serveChunkOps = 16
	serveConns    = 2
	serveClockHz  = 1000
	serveFatTreeK = 8
	// serveCycleSec is the expected seconds of one ingest + crash +
	// recovery cycle on the 2-vCPU reference host; a run does
	// budget/serveCycleSec cycles (at least two).
	serveCycleSec = 6.5
)

// workDir holds the benchmark's journal directories, inside the checkout.
const workDir = ".bench_build/serve"

func serveConfig(dir string, recover bool, crash func(serve.CrashPoint) bool) serve.Config {
	return serve.Config{
		Shards:     4,
		Workers:    2,
		FatTreeK:   serveFatTreeK,
		ClockHz:    serveClockHz,
		WALDir:     dir,
		Recover:    recover,
		FsyncEvery: 0,
		CrashHook:  crash,
	}
}

// serveTrace is the synthesized request stream: per connection, its
// requests in send order, plus the trace's intent count.
type serveTrace struct {
	conns   [serveConns][]*serve.IngestRequest
	intents int
	ops     int
}

// newServeTrace flattens open-loop arrivals, until they add up to
// serveTraceOps operations, into the operations a cluster's instrumentation
// would emit — each job's reducer placements,
// one intent per map (predicted bytes from the job's intermediate-output
// matrix), then its retirement — interleaved round-robin in runs of 8 so
// many jobs are live at once, then partitioned by job over the connections
// and packed into requests of serveChunkOps operations.
func newServeTrace(in uint64, numHosts int) *serveTrace {
	stream := workload.OpenLoop(workload.OpenLoopConfig{BaseRateJobsPerSec: 0.2, Seed: in})
	rng := stats.NewRNG(in).Split(0x5e17e)
	type op struct {
		job     int
		reducer *serve.WireReducerUp
		intent  *serve.WireIntent
	}
	var perJob [][]op
	t := &serveTrace{}
	for j := 0; t.ops < serveTraceOps; j++ {
		spec := stream.Next().Spec
		var ops []op
		for r := 0; r < spec.NumReduces; r++ {
			ops = append(ops, op{job: j, reducer: &serve.WireReducerUp{Job: j, Reduce: r, Host: rng.Intn(numHosts)}})
		}
		for m := 0; m < spec.NumMaps; m++ {
			ops = append(ops, op{job: j, intent: &serve.WireIntent{
				Job: j, Map: m, SrcHost: rng.Intn(numHosts), PredictedWireBytes: spec.MapOutputs[m]}})
			t.intents++
		}
		perJob = append(perJob, append(ops, op{job: j}))
		t.ops += len(ops) + 1
	}
	var perConn [serveConns][]op
	heads := make([]int, len(perJob))
	for left := true; left; {
		left = false
		for j := range perJob {
			for i := 0; i < 8 && heads[j] < len(perJob[j]); i++ {
				o := perJob[j][heads[j]]
				perConn[j%serveConns] = append(perConn[j%serveConns], o)
				heads[j]++
			}
			left = left || heads[j] < len(perJob[j])
		}
	}
	for c, ops := range perConn {
		for at := 0; at < len(ops); at += serveChunkOps {
			req := &serve.IngestRequest{}
			for _, o := range ops[at:min(at+serveChunkOps, len(ops))] {
				switch {
				case o.reducer != nil:
					req.Reducers = append(req.Reducers, *o.reducer)
				case o.intent != nil:
					req.Intents = append(req.Intents, *o.intent)
				default:
					req.DoneJobs = append(req.DoneJobs, o.job)
				}
			}
			t.conns[c] = append(t.conns[c], req)
		}
	}
	return t
}

func requestOps(r *serve.IngestRequest) int {
	return len(r.Reducers) + len(r.Intents) + len(r.DoneJobs)
}

// ack is one acknowledged request: which, and when its reply arrived.
type ack struct {
	conn, idx int
	latSec    float64
	at        time.Time
}

// serveCycle is one ingest + crash + recovery cycle's measurements.
type serveCycle struct {
	ingestS   float64
	recoveryS float64
	acks      []ack
}

// runServeCycle runs one cycle against a fresh journal directory and checks
// it: every request is acked with a disposition per operation and no
// duplicates, the server saw every intent, no booking is left once every job
// is retired, and the recovered server reports the same placement digest,
// placement count and collector counters as the server did before the crash.
// Each request and the recovery count as attempted operations.
func runServeCycle(o *outcome, t *serveTrace) (*serveCycle, error) {
	dir, err := cleanDir("cycle-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var crashArmed atomic.Bool
	crash := func(p serve.CrashPoint) bool { return p == serve.CrashBeforeAppend && crashArmed.Load() }
	srv, err := serve.New(serveConfig(dir, false, crash))
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	ctx := context.Background()

	// Closed loop: each connection sends its next request only once the
	// previous one is acked. One attempt per request: a retry would hide a
	// failure.
	cy := &serveCycle{}
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		clients [serveConns]*serve.Client
	)
	start := time.Now()
	for c := 0; c < serveConns; c++ {
		transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer transport.CloseIdleConnections()
		clients[c] = serve.NewClient(base, serve.ClientConfig{MaxAttempts: 1, HTTP: &http.Client{Transport: transport}})
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, req := range t.conns[c] {
				t0 := time.Now()
				resp, err := clients[c].Ingest(ctx, req)
				now := time.Now()
				mu.Lock()
				o.attempted++
				ok := o.check(err == nil, "serve: connection %d request %d: %v", c, i, err)
				if ok {
					ok = o.check(resp.Accepted+resp.Deferred+resp.Duplicates == requestOps(req) && resp.Duplicates == 0,
						"serve: connection %d request %d: %d ops answered %+v", c, i, requestOps(req), *resp)
				}
				if ok {
					cy.acks = append(cy.acks, ack{conn: c, idx: i, latSec: now.Sub(t0).Seconds(), at: now})
				} else {
					o.failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	cy.ingestS = time.Since(start).Seconds()

	before, err := clients[0].ServerStats(ctx)
	if err != nil {
		return nil, err
	}
	o.check(before.IntentsReceived == t.intents, "serve: server received %d intents, trace has %d", before.IntentsReceived, t.intents)
	o.check(before.OutstandingBookings == 0, "serve: %d bookings leaked after every job retired", before.OutstandingBookings)

	// Crash: the next batch dies before its journal append.
	crashArmed.Store(true)
	_, err = clients[0].Ingest(ctx, &serve.IngestRequest{DoneJobs: []int{0}})
	o.check(err != nil, "serve: request after the injected crash was acked")
	if err := hs.Close(); err != nil {
		return nil, err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	if err := shutdown(srv); err != nil {
		return nil, err
	}

	t0 := time.Now()
	rec, err := serve.New(serveConfig(dir, true, nil))
	if err != nil {
		return nil, err
	}
	rec.Start()
	if err := awaitReady(rec); err != nil {
		return nil, err
	}
	cy.recoveryS = time.Since(t0).Seconds()
	after, err := statsOf(rec)
	if err != nil {
		return nil, err
	}
	// The recovery is one more attempted operation; it fails if the
	// recovered state differs from the pre-crash state.
	o.attempted++
	bad := len(o.violations)
	o.check(after.Recovered && after.PlacementDigest == before.PlacementDigest && after.Placements == before.Placements,
		"serve: recovered digest %s over %d placements, before the crash %s over %d",
		after.PlacementDigest, after.Placements, before.PlacementDigest, before.Placements)
	o.check(after.CollectorStats == before.CollectorStats,
		"serve: recovered collector counters %+v, before the crash %+v", after.CollectorStats, before.CollectorStats)
	if len(o.violations) > bad {
		o.failed++
	}
	return cy, shutdown(rec)
}

func awaitReady(s *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.AwaitReady(ctx)
}

func shutdown(s *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.Shutdown(ctx)
}

// statsOf reads GET /v1/stats through the server's handler in process.
func statsOf(s *serve.Server) (*serve.StatsResponse, error) {
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rr.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: HTTP %d", rr.Code)
	}
	st := new(serve.StatsResponse)
	return st, json.NewDecoder(rr.Body).Decode(st)
}

// setupServer times the server's own set-up: New → Start → AwaitReady on
// an empty journal. Directory creation and shutdown are left out.
func setupServer() (float64, error) {
	dir, err := cleanDir("setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	s, err := serve.New(serveConfig(dir, false, nil))
	if err != nil {
		return 0, err
	}
	s.Start()
	if err := awaitReady(s); err != nil {
		return 0, err
	}
	sec := time.Since(t0).Seconds()
	return sec, shutdown(s)
}

func runServeJournaled(op opts) (*outcome, error) {
	o := newOutcome()
	numHosts := bench.FatTreeHosts(serveFatTreeK)
	cycles := int(math.Round(op.budget.Seconds() / serveCycleSec))
	if cycles < 2 {
		cycles = 2
	}
	setup := &batchSampler{minBatch: 20 * time.Millisecond, fn: setupServer}
	var (
		ingestS, recoveryS, perSecond, ackSec []float64
		last                                  *serveCycle
		lastTrace                             *serveTrace
	)
	for i := 0; i < cycles; i++ {
		if err := setup.sample(batchesPer(cycles)); err != nil {
			return nil, err
		}
		t := newServeTrace(inputSeed(op.seed+uint64(i)), numHosts)
		runtime.GC()
		cy, err := runServeCycle(o, t)
		if err != nil {
			return nil, err
		}
		ingestS = append(ingestS, cy.ingestS)
		recoveryS = append(recoveryS, cy.recoveryS)
		perSecond = append(perSecond, float64(t.intents)/cy.ingestS)
		for _, a := range cy.acks {
			ackSec = append(ackSec, a.latSec)
		}
		last, lastTrace = cy, t
	}
	if !op.trace {
		rss, err := rssPeakMB()
		if err != nil {
			return nil, err
		}
		o.set("setup_s", setup.median(), "s")
		o.set("trial_s", median(ingestS), "s")
		o.set("intents_per_s", median(perSecond), "1/s")
		o.set("ack_p50_ms", percentile(ackSec, 0.50)*1e3, "ms")
		o.set("ack_p99_ms", percentile(ackSec, 0.99)*1e3, "ms")
		o.set("recovery_s", median(recoveryS), "s")
		o.set("rss_peak_mb", rss, "MB")
		return o, nil
	}
	// The traced replay takes the last cycle's requests in the order their
	// acks arrived.
	order := append([]ack(nil), last.acks...)
	sort.Slice(order, func(i, j int) bool { return order[i].at.Before(order[j].at) })
	reqs := make([]*serve.IngestRequest, len(order))
	for i, a := range order {
		reqs[i] = lastTrace.conns[a.conn][a.idx]
	}
	return o, traceServe(o, reqs, percentile(ackSec, 0.50))
}

// cleanDir makes an empty journal directory under workDir.
func cleanDir(prefix string) (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workDir, prefix)
}
