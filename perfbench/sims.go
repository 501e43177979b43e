package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pythia/internal/topology"
)

// simWorkload describes one simulator workload for runSim.
type simWorkload struct {
	name   string
	fabric fabric
	// trialSec is the expected host seconds of one trial on the 2-vCPU
	// reference host; a run does budget/trialSec trials (at least
	// minTrials), a fixed amount of work, so counts and memory do not
	// depend on how fast the host happens to be.
	trialSec  float64
	minTrials int
	trial     func(o *outcome, in uint64, traced bool, pin *simOutputs) (*simTrial, error)
}

// simTrial is one trial's measurements.
type simTrial struct {
	out     simOutputs
	runS    float64 // host seconds in the engine, excluding the snapshot hook
	ackSec  []float64
	intents int
	snap    collectorSnap
	hasSnap bool
	snapErr error
	// Traced trials only: the fabric, the host pairs placed (in
	// first-placement order) and the per-layer sample.
	g      *topology.Graph
	pairs  *placedPairs
	layers simLayerSample
}

// watch arms a fresh stack for a trial: the first time cutNow holds after
// a collector call, a failover snapshot is cut; a traced trial also records
// every host pair the collector places.
func (tr *simTrial) watch(s *simStack, traced bool, cutNow func() bool) {
	s.sink.after = func() {
		if !tr.hasSnap && tr.snapErr == nil && cutNow() {
			tr.snap, tr.snapErr = cutSnapshot(s.py, s.eng.Now())
			tr.hasSnap = tr.snapErr == nil
		}
	}
	if traced {
		tr.pairs = watchPlacements(s.py)
	}
}

// run drives the engine through fn, timing it without the snapshot hook,
// then collects the ack samples and, when traced, the per-layer sample.
func (tr *simTrial) run(s *simStack, traced bool, fn func()) error {
	t0 := time.Now()
	fn()
	tr.runS = (time.Since(t0) - s.sink.hookBusy).Seconds()
	if tr.snapErr != nil {
		return fmt.Errorf("collector snapshot: %w", tr.snapErr)
	}
	tr.ackSec, tr.intents = s.sink.ackSec, s.sink.intentCalls
	if traced {
		tr.g = s.g
		tr.layers = sampleLayers(s, tr.runS, tr.snap.encS)
	}
	return nil
}

// runSim runs a simulator workload: a fixed number of trials, trial i on
// input seed inputSeed(seed+i), each preceded by set-up timing batches and
// followed by failover restores from its snapshot; then either the
// end-to-end or (traced) the per-layer report. A traced run runs each input
// seed twice, traced then untraced, so the tracing overhead is measured on
// the same inputs in one process.
func runSim(op opts, w simWorkload) (*outcome, error) {
	o := newOutcome()
	n := int(math.Round(op.budget.Seconds() / w.trialSec))
	if n < w.minTrials {
		n = w.minTrials
	}
	var (
		snap     collectorSnap
		restoreS []float64
	)
	setup := &batchSampler{minBatch: 20 * time.Millisecond, fn: func() (float64, error) {
		return timed(func() { newSimStack(w.fabric, false) }), nil
	}}
	recovery := &batchSampler{minBatch: 20 * time.Millisecond, fn: func() (float64, error) {
		var err error
		total := timed(func() {
			var s float64
			s, err = restoreCollector(w.fabric, snap)
			restoreS = append(restoreS, s)
		})
		return total, err
	}}
	var (
		first             *simTrial
		samples           []simLayerSample
		runS, untracedS   []float64
		ackSec, perSecond []float64
	)
	for i := 0; i < n; i++ {
		if err := setup.sample(batchesPer(n)); err != nil {
			return nil, err
		}
		step := i
		if op.trace {
			step = i / 2 // each input seed runs traced, then untraced
		}
		in := inputSeed(op.seed + uint64(step))
		pin, err := pinnedOutputs(w.name, in)
		if err != nil {
			return nil, err
		}
		traced := op.trace && i%2 == 0
		runtime.GC()
		tr, err := w.trial(o, in, traced, pin)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if !tr.hasSnap {
			return nil, fmt.Errorf("%s: input seed %d: no failover snapshot was cut", w.name, in)
		}
		snap = tr.snap
		if err := recovery.sample(batchesPer(n)); err != nil {
			return nil, fmt.Errorf("%s: restore: %w", w.name, err)
		}
		if op.trace && !traced {
			untracedS = append(untracedS, tr.runS)
			continue
		}
		if first == nil {
			first = tr
		}
		runS = append(runS, tr.runS)
		ackSec = append(ackSec, tr.ackSec...)
		perSecond = append(perSecond, float64(tr.intents)/tr.runS)
		samples = append(samples, tr.layers)
	}
	if !op.trace {
		rss, err := rssPeakMB()
		if err != nil {
			return nil, err
		}
		o.set("setup_s", setup.median(), "s")
		o.set("trial_s", median(runS), "s")
		o.set("intents_per_s", median(perSecond), "1/s")
		o.set("ack_p50_ms", percentile(ackSec, 0.50)*1e3, "ms")
		o.set("ack_p99_ms", percentile(ackSec, 0.99)*1e3, "ms")
		o.set("recovery_s", recovery.median(), "s")
		o.set("rss_peak_mb", rss, "MB")
		return o, nil
	}
	buildS, err := repeatMedian(9, 20*time.Millisecond, func() (float64, error) {
		return timed(func() { w.fabric.build() }), nil
	})
	if err != nil {
		return nil, err
	}
	setSimLayers(o, buildS, kspColdMedian(first.g, first.pairs, pythiaConfig().Defaults().K), samples, restoreS, runS, untracedS)
	return o, nil
}

// simLayerSample is one traced trial's per-layer figures.
type simLayerSample struct {
	aggs, intentS, intentCalls, doneS, resolveS, resolveCalls, rules float64
	events, runS, selfS, passes, flows, snapS                        float64
}

// sampleLayers reads a traced stack's public counters and decorator clocks
// after its run (runS host seconds, snapS spent cutting the snapshot).
func sampleLayers(s *simStack, runS, snapS float64) simLayerSample {
	return simLayerSample{
		aggs:         float64(s.py.Stats().AggregatesPlaced),
		intentS:      s.sink.intentBusy.Seconds(),
		intentCalls:  float64(s.sink.intentCalls),
		doneS:        s.sink.doneBusy.Seconds(),
		resolveS:     s.res.busy.Seconds(),
		resolveCalls: float64(s.res.calls),
		rules:        float64(s.ofc.RulesInstalled),
		events:       float64(s.eng.Processed),
		runS:         runS,
		selfS:        runS - (s.sink.busy() + s.res.busy).Seconds(),
		passes:       float64(s.net.AllocPasses),
		flows:        float64(s.net.CompletedFlows()),
		snapS:        snapS,
	}
}

// setSimLayers reports the per-layer metrics of a simulator workload: the
// median of each figure over the traced trials, and the tracing overhead
// (traced against untraced trial seconds). Layers only the serving
// workload exercises read 0.
func setSimLayers(o *outcome, buildS, kspS float64, samples []simLayerSample, restoreS, tracedS, untracedS []float64) {
	med := func(f func(simLayerSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	o.set("topology.build_ms", buildS*1e3, "ms")
	o.set("topology.ksp_cold_us", kspS*1e6, "us")
	o.set("core.aggregates_placed", med(func(s simLayerSample) float64 { return s.aggs }), "count")
	o.set("core.intent_s", med(func(s simLayerSample) float64 { return s.intentS }), "s")
	o.set("core.intent_calls", med(func(s simLayerSample) float64 { return s.intentCalls }), "count")
	o.set("core.job_done_s", med(func(s simLayerSample) float64 { return s.doneS }), "s")
	o.set("core.snapshot_ms", med(func(s simLayerSample) float64 { return s.snapS })*1e3, "ms")
	o.set("core.restore_ms", median(restoreS)*1e3, "ms")
	o.set("openflow.resolve_s", med(func(s simLayerSample) float64 { return s.resolveS }), "s")
	o.set("openflow.resolve_calls", med(func(s simLayerSample) float64 { return s.resolveCalls }), "count")
	o.set("openflow.rules_installed", med(func(s simLayerSample) float64 { return s.rules }), "count")
	o.set("sim.events", med(func(s simLayerSample) float64 { return s.events }), "count")
	o.set("sim.run_s", med(func(s simLayerSample) float64 { return s.runS }), "s")
	o.set("sim.run_self_s", med(func(s simLayerSample) float64 { return s.selfS }), "s")
	o.set("netsim.alloc_passes", med(func(s simLayerSample) float64 { return s.passes }), "count")
	o.set("netsim.flows", med(func(s simLayerSample) float64 { return s.flows }), "count")
	setServeLayersUnused(o)
	o.set("trace.overhead_pct", overheadPct(median(tracedS), median(untracedS)), "%")
}

// overheadPct is how much longer the traced path took than the untraced
// one, in percent of the untraced time.
func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}
