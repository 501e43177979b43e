package main

import (
	"fmt"

	"pythia/internal/workload"
)

// The sim-fattree workload: back-to-back Pythia sort trials (4 GB input, 64
// reducers) on a k=24 fat-tree (3,456 hosts), each on a fresh fabric with a
// cold path cache. Cold k-shortest-path computation under the collector's
// placement dominates this workload's CPU.
const (
	fatTreeK       = 24
	fatTreeBytes   = 4 * workload.GB
	fatTreeReduces = 64
)

// fatTreeFabric shards allocation passes over two workers, as the k=24 row
// of BenchmarkScaleFatTree does, capped at the benchmark's two CPUs.
var fatTreeFabric = fabric{fatTreeK: fatTreeK, allocWorkers: 2}

var simFatTree = simWorkload{
	name:      "sim-fattree",
	fabric:    fatTreeFabric,
	trialSec:  1,
	minTrials: 5,
	trial:     runFatTreeTrial,
}

func runSimFatTree(op opts) (*outcome, error) { return runSim(op, simFatTree) }

// runFatTreeTrial runs one trial on a fresh stack and checks it: the job
// completes, no fault counter moves, no booking leaks, and the simulated
// outputs equal the values pinned for the input seed (when pin is non-nil).
func runFatTreeTrial(o *outcome, in uint64, traced bool, pin *simOutputs) (*simTrial, error) {
	s := newSimStack(fatTreeFabric, traced)
	spec := workload.Sort(fatTreeBytes, fatTreeReduces, in)
	tr := &simTrial{}
	// The failover snapshot is cut when the last map's prediction is in:
	// the collector then holds every booking of the shuffle.
	tr.watch(s, traced, func() bool { return s.sink.intentCalls == spec.NumMaps })
	job, err := s.cluster.Submit(spec)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	if err := tr.run(s, traced, s.eng.Run); err != nil {
		return nil, err
	}

	o.attempted++
	before := len(o.violations)
	label := fmt.Sprintf("sim-fattree input seed %d", in)
	o.check(job.Done, "%s: job did not complete", label)
	tr.out = simOutputs{
		JobSec:         float64(job.Duration()),
		Flows:          s.net.CompletedFlows(),
		FlowFNV:        flowHistoryFNV(s.net),
		RulesInstalled: s.ofc.RulesInstalled,
	}
	checkFaults(o, label, s)
	o.check(s.py.OutstandingTotal() == 0, "%s: %d bookings leaked", label, s.py.OutstandingTotal())
	if pin != nil {
		o.check(tr.out == *pin, "%s: outputs %+v differ from pinned %+v", label, tr.out, *pin)
	}
	if len(o.violations) > before {
		o.failed++
	}
	return tr, nil
}
