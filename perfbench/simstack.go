package main

import (
	"bytes"
	"encoding/gob"
	"time"

	"pythia/internal/core"
	"pythia/internal/hadoop"
	"pythia/internal/instrument"
	"pythia/internal/netsim"
	"pythia/internal/openflow"
	"pythia/internal/sim"
	"pythia/internal/topology"
)

// fabric selects the simulated network: a k-ary fat-tree with k/2 hosts per
// edge switch, or (fatTreeK == 0) the paper's two-rack testbed of 5 hosts
// per rack and two trunks; allocWorkers is the allocator's worker pool width
// (at most the two CPUs the benchmark is sized for).
type fabric struct{ fatTreeK, allocWorkers int }

func (f fabric) build() (*topology.Graph, []topology.NodeID) {
	if f.fatTreeK > 0 {
		return topology.FatTree(f.fatTreeK, f.fatTreeK/2, topology.Gbps)
	}
	g, hosts, _ := topology.TwoRack(5, 2, topology.Gbps)
	return g, hosts
}

// pythiaConfig is the collector configuration of the simulator trials (the
// harness default: host-pair aggregation on).
func pythiaConfig() core.Config { return core.Config{}.EnableAggregation() }

// simStack is one wired simulator: fabric, allocator, OpenFlow controller,
// Pythia collector, Hadoop model and instrumentation, with the benchmark's
// timing decorators on the two interface seams.
type simStack struct {
	eng     *sim.Engine
	g       *topology.Graph
	net     *netsim.Network
	ofc     *openflow.Controller
	py      *core.Pythia
	cluster *hadoop.Cluster
	mw      *instrument.Middleware
	sink    *timedSink
	res     *timedResolver // nil unless traced
}

// newSimStack wires a fresh simulator. Traced stacks route the cluster's
// path resolution through a timing decorator; untraced ones hand the
// controller to the cluster directly.
func newSimStack(f fabric, traced bool) *simStack {
	g, hosts := f.build()
	s := &simStack{g: g}
	s.eng = sim.NewEngine()
	s.net = netsim.New(s.eng, g)
	s.net.SetAllocWorkers(f.allocWorkers)
	s.ofc = openflow.NewController(s.eng, s.net, 0)
	s.py = core.New(s.eng, s.net, s.ofc, pythiaConfig())
	var resolver hadoop.PathResolver = s.ofc
	if traced {
		s.res = &timedResolver{next: s.ofc}
		resolver = s.res
	}
	s.cluster = hadoop.NewCluster(s.eng, s.net, hosts, resolver, hadoop.Config{})
	s.sink = &timedSink{py: s.py}
	s.mw = instrument.Attach(s.eng, s.cluster, s.sink, instrument.Config{})
	return s
}

// timedSink decorates the collector's instrumentation seam
// (instrument.Sink and JobDoneSink) and splits the collector's busy time by
// call kind. Each prediction's host latency is an in-process "ack" sample:
// the time the collector takes to take in one shuffle intent, including the
// placement work it triggers.
type timedSink struct {
	py *core.Pythia

	ackSec      []float64
	intentCalls int
	intentBusy  time.Duration
	upBusy      time.Duration
	doneBusy    time.Duration

	// after, when set, runs after every forwarded call (the trials use it
	// to cut a collector snapshot at a chosen point); its own time is
	// accounted in hookBusy so trial times can exclude it.
	after    func()
	hookBusy time.Duration
}

func (s *timedSink) ShuffleIntent(in instrument.Intent) {
	t0 := time.Now()
	s.py.ShuffleIntent(in)
	d := time.Since(t0)
	s.ackSec = append(s.ackSec, d.Seconds())
	s.intentCalls++
	s.intentBusy += d
	s.runHook()
}

func (s *timedSink) ReducerUp(up instrument.ReducerUp) {
	t0 := time.Now()
	s.py.ReducerUp(up)
	s.upBusy += time.Since(t0)
	s.runHook()
}

func (s *timedSink) JobDone(job int) {
	t0 := time.Now()
	s.py.JobDone(job)
	s.doneBusy += time.Since(t0)
	s.runHook()
}

func (s *timedSink) runHook() {
	if s.after == nil {
		return
	}
	t0 := time.Now()
	s.after()
	s.hookBusy += time.Since(t0)
}

func (s *timedSink) busy() time.Duration { return s.intentBusy + s.upBusy + s.doneBusy }

// timedResolver decorates the cluster's path-resolution seam
// (hadoop.PathResolver) around the OpenFlow controller.
type timedResolver struct {
	next  hadoop.PathResolver
	calls int
	busy  time.Duration
}

func (r *timedResolver) ResolveShuffle(t netsim.FiveTuple) (topology.Path, error) {
	t0 := time.Now()
	p, err := r.next.ResolveShuffle(t)
	r.busy += time.Since(t0)
	r.calls++
	return p, err
}

// placedPairs records every host pair a collector places, in
// first-placement order, through its placement hook.
type placedPairs struct {
	seen  map[[2]topology.NodeID]bool
	order [][2]topology.NodeID
}

func watchPlacements(py *core.Pythia) *placedPairs {
	p := &placedPairs{seen: map[[2]topology.NodeID]bool{}}
	py.SetPlacementHook(func(src, dst topology.NodeID, _ topology.Path) {
		if k := [2]topology.NodeID{src, dst}; !p.seen[k] {
			p.seen[k] = true
			p.order = append(p.order, k)
		}
	})
	return p
}

// kspColdMedian times one PathCache.Paths call per placed host pair on a
// fresh cache and returns the median in seconds.
func kspColdMedian(g *topology.Graph, pairs *placedPairs, k int) float64 {
	cache := topology.NewPathCache(g, k)
	var per []float64
	for _, p := range pairs.order {
		per = append(per, timed(func() { cache.Paths(p[0], p[1]) }))
	}
	return median(per)
}

// collectorSnap is a collector snapshot cut mid-run and encoded the way the
// serving plane persists one (gob), with the engine instant it was cut at.
type collectorSnap struct {
	payload []byte
	at      sim.Time
	encS    float64 // Snapshot + gob encode seconds
}

func cutSnapshot(py *core.Pythia, now sim.Time) (collectorSnap, error) {
	t0 := time.Now()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(py.Snapshot()); err != nil {
		return collectorSnap{}, err
	}
	return collectorSnap{payload: buf.Bytes(), at: now, encS: time.Since(t0).Seconds()}, nil
}

// restoreCollector is the simulator's failover path: a standby builds a
// fresh fabric and collector, decodes the snapshot, restores it (which
// re-installs every placed aggregate's rules) and runs its engine to the
// snapshot instant. It returns the seconds spent in decode + Restore.
func restoreCollector(f fabric, cs collectorSnap) (float64, error) {
	g, _ := f.build()
	eng := sim.NewEngine()
	net := netsim.New(eng, g)
	ofc := openflow.NewController(eng, net, 0)
	py := core.New(eng, net, ofc, pythiaConfig())
	t0 := time.Now()
	snap := new(core.Snapshot)
	if err := gob.NewDecoder(bytes.NewReader(cs.payload)).Decode(snap); err != nil {
		return 0, err
	}
	if err := py.Restore(snap); err != nil {
		return 0, err
	}
	restoreS := time.Since(t0).Seconds()
	eng.RunUntil(cs.at)
	return restoreS, nil
}

// simOutputs are a trial's simulated results, pinned per input seed.
type simOutputs struct {
	JobSec         float64 `json:"job_sec"`
	Flows          int     `json:"flows"`
	FlowFNV        string  `json:"flow_fnv"`
	RulesInstalled uint64  `json:"rules_installed"`
	// sim-steady only.
	Completed int     `json:"completed,omitempty"`
	P99JCTSec float64 `json:"p99_jct_sec,omitempty"`
}

// flowHistoryFNV fingerprints every completed flow in completion order:
// identity and exact start/finish instants.
func flowHistoryFNV(net *netsim.Network) string {
	h := newFNV()
	net.ForEachCompleted(func(f *netsim.Flow) {
		h.mix(uint64(f.ID))
		h.mix(uint64(f.Job))
		h.mix(uint64(f.Map))
		h.mix(uint64(f.Reduce))
		h.mixFloat(float64(f.Started()))
		h.mixFloat(float64(f.Finished()))
	})
	return h.String()
}

// checkFaults records a violation for every nonzero prediction-plane fault
// counter: a healthy trial keeps them all at zero.
func checkFaults(o *outcome, label string, s *simStack) {
	st := s.py.Stats()
	counters := []struct {
		name string
		v    int
	}{
		{"dedup_hits", st.DedupHits},
		{"duplicate_intents", st.DuplicateIntents},
		{"expired_bookings", st.ExpiredBookings},
		{"expired_intents", st.ExpiredIntents},
		{"rule_install_errors", st.RuleInstallErrors},
		{"aggregates_degraded", st.AggregatesDegraded},
		{"monitor_crashes", s.mw.MonitorCrashes},
		{"missed_spills", s.mw.MissedSpills},
		{"late_intents", s.mw.LateIntents},
		{"in_flight_dropped", s.mw.InFlightDropped},
	}
	for _, c := range counters {
		o.check(c.v == 0, "%s: fault counter %s = %d, want 0", label, c.name, c.v)
	}
}
