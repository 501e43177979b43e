package main

import (
	"fmt"

	"pythia/internal/hadoop"
	"pythia/internal/sim"
	"pythia/internal/workload"
)

// The sim-steady workload: the open-loop multi-tenant job stream at 0.20
// jobs/s (diurnal-free Poisson, default tenant mix) on the paper's two-rack
// testbed, admitted under an in-flight cap of 8 (highest priority first,
// FIFO within a priority), over a 7,200 s simulated horizon — about 1,400
// jobs. Path computation is negligible on 10 hosts; the OpenFlow flow-table
// lookups, the allocator and the event kernel carry this workload.
const (
	steadyRate        = 0.20
	steadyHorizonSec  = 7200
	steadyMaxInFlight = 8
)

// steadyFabric allocates serially, as the steady-state harness runs it:
// components on a 10-host fabric are too small to shard.
var steadyFabric = fabric{allocWorkers: 1}

var simSteady = simWorkload{
	name:      "sim-steady",
	fabric:    steadyFabric,
	trialSec:  6.5,
	minTrials: 3,
	trial:     runSteadyHorizon,
}

func runSimSteady(op opts) (*outcome, error) { return runSim(op, simSteady) }

// steadyJob tracks one arrival through admission.
type steadyJob struct {
	arrival workload.OpenJob
	handle  *hadoop.Job
	doneAt  float64
}

// runSteadyHorizon runs one horizon on a fresh stack and checks it: every
// admission succeeds, no fault counter moves, completed jobs hold no
// bookings, and the simulated outputs equal the values pinned for the input
// seed (when pin is non-nil).
func runSteadyHorizon(o *outcome, in uint64, traced bool, pin *simOutputs) (*simTrial, error) {
	s := newSimStack(steadyFabric, traced)
	arrivals := workload.OpenLoop(workload.OpenLoopConfig{BaseRateJobsPerSec: steadyRate, Seed: in}).Until(steadyHorizonSec)
	tr := &simTrial{}
	// The failover snapshot is cut at the first collector call past
	// mid-horizon, in the thick of the steady state.
	tr.watch(s, traced, func() bool { return s.eng.Now() >= steadyHorizonSec/2 })

	var (
		byID      = map[int]*steadyJob{}
		queue     []*steadyJob
		inFlight  int
		submitErr error
		completed []*steadyJob
	)
	admit := func(j *steadyJob) {
		h, err := s.cluster.Submit(j.arrival.Spec)
		if err != nil {
			if submitErr == nil {
				submitErr = fmt.Errorf("submit %q: %w", j.arrival.Spec.Name, err)
			}
			return
		}
		j.handle = h
		byID[h.ID] = j
		inFlight++
	}
	s.cluster.OnJobDone(func(h *hadoop.Job) {
		j := byID[h.ID]
		j.doneAt = float64(s.eng.Now())
		completed = append(completed, j)
		inFlight--
		best := -1
		for i, q := range queue {
			if best < 0 || q.arrival.Priority > queue[best].arrival.Priority {
				best = i
			}
		}
		if best >= 0 {
			next := queue[best]
			queue = append(queue[:best], queue[best+1:]...)
			admit(next)
		}
	})
	for i := range arrivals {
		j := &steadyJob{arrival: arrivals[i]}
		s.eng.At(sim.Time(j.arrival.SubmitAtSec), func() {
			if inFlight < steadyMaxInFlight {
				admit(j)
			} else {
				queue = append(queue, j)
			}
		})
	}
	if err := tr.run(s, traced, func() { s.eng.RunUntil(steadyHorizonSec) }); err != nil {
		return nil, err
	}

	o.attempted++
	before := len(o.violations)
	label := fmt.Sprintf("sim-steady input seed %d", in)
	o.check(submitErr == nil, "%s: %v", label, submitErr)
	var jcts []float64
	jobSec, leaked := 0.0, 0
	for _, j := range completed {
		jct := j.doneAt - j.arrival.SubmitAtSec
		jcts = append(jcts, jct)
		jobSec += jct
		leaked += s.py.OutstandingBookings(j.handle.ID)
	}
	o.check(len(completed) > 0, "%s: no job completed", label)
	o.check(leaked == 0, "%s: completed jobs still hold %d bookings", label, leaked)
	checkFaults(o, label, s)
	tr.out = simOutputs{
		JobSec:         jobSec,
		Flows:          s.net.CompletedFlows(),
		FlowFNV:        flowHistoryFNV(s.net),
		RulesInstalled: s.ofc.RulesInstalled,
		Completed:      len(completed),
		P99JCTSec:      percentile(jcts, 0.99),
	}
	if pin != nil {
		o.check(tr.out == *pin, "%s: outputs %+v differ from pinned %+v", label, tr.out, *pin)
	}
	if len(o.violations) > before {
		o.failed++
	}
	return tr, nil
}
