package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"pythia/internal/bench"
	"pythia/internal/netsim"
	"pythia/internal/sim"
)

// historyRow is one historical measurement of the sim-fattree trial shape
// at k=8 under one allocator/event-kernel pairing. The reference paths it
// covers are slated for removal from production code, so their last
// measured cost is kept in history.json rather than as gated workloads.
type historyRow struct {
	Workload  string  `json:"workload"`
	K         int     `json:"k"`
	Alloc     string  `json:"alloc"`
	Kernel    string  `json:"kernel"`
	Trials    int     `json:"trials"`
	TrialSMed float64 `json:"trial_s_median"`
	TrialSMin float64 `json:"trial_s_min"`
	TrialSMax float64 `json:"trial_s_max"`
	JobSec    float64 `json:"sim_job_sec"`
	Flows     int     `json:"flows"`
	// SameAsDefault reports the run's simulated job time and flow history
	// equal the default (incremental allocator, calendar kernel) row's.
	SameAsDefault bool `json:"same_as_default"`
}

type historyFile struct {
	Note      string       `json:"note"`
	Measured  string       `json:"measured"`
	GoVersion string       `json:"go_version"`
	CPUs      int          `json:"cpus"`
	Rows      []historyRow `json:"rows"`
}

// printHistory runs the sim-fattree trial shape (4 GB sort, 64 reducers,
// input seed 1, two allocator workers) on a k=8 fat-tree under the default
// path and under each reference path, nine trials each taken round-robin
// across the paths so a slow stretch of the host hits them alike, and prints
// the rows as JSON. Trials go through bench.RunScaleFatTree, the harness
// behind BenchmarkScaleFatTree, which also records the flight log and flow
// history, so the times compare across rows, not with trial_s.
func printHistory() error {
	const trials = 9
	modes := []struct {
		alloc  netsim.AllocMode
		kernel sim.SchedulerMode
		a, k   string
	}{
		{netsim.AllocIncremental, sim.SchedCalendar, "incremental", "calendar"},
		{netsim.AllocScan, sim.SchedCalendar, "scan", "calendar"},
		{netsim.AllocIndexed, sim.SchedCalendar, "indexed", "calendar"},
		{netsim.AllocIncremental, sim.SchedHeap, "incremental", "heap"},
	}
	secs := make([][]float64, len(modes))
	results := make([]bench.ScaleFatTreeResult, len(modes))
	for t := 0; t < trials; t++ {
		for i, m := range modes {
			runtime.GC()
			secs[i] = append(secs[i], timed(func() {
				results[i] = bench.RunScaleFatTree(bench.ScaleFatTreeConfig{
					K: 8, SortBytes: fatTreeBytes, Reduces: fatTreeReduces,
					Alloc: m.alloc, Sched: m.kernel, AllocWorkers: 2, Seed: 1,
				})
			}))
		}
	}
	out := historyFile{
		Note: "sim-fattree trial shape at k=8 under the reference allocator and event-kernel paths, " +
			"via bench.RunScaleFatTree; history, not a gated workload (bash perfbench/run.sh -history)",
		Measured:  time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
	}
	ref := results[0]
	for i, m := range modes {
		res := results[i]
		row := historyRow{
			Workload: "sim-fattree", K: 8, Alloc: m.a, Kernel: m.k, Trials: trials,
			TrialSMed: median(secs[i]), TrialSMin: percentile(secs[i], 0), TrialSMax: percentile(secs[i], 1),
			JobSec: res.JobSec, Flows: len(res.FlowHistory),
			SameAsDefault: res.JobSec == ref.JobSec && equalFlows(res.FlowHistory, ref.FlowHistory),
		}
		if !row.SameAsDefault {
			return fmt.Errorf("history: %s/%s diverges from the default path", m.a, m.k)
		}
		out.Rows = append(out.Rows, row)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func equalFlows(a, b []bench.FlowRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
