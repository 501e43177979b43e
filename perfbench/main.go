// Command perfbench is the repository benchmark: it runs one named workload
// from a seed for a fixed wall-clock budget, checks the program's outputs,
// and prints every metric with its unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set of BENCHMARK.json; with
// -trace 1 they are the per-layer set, measured from outside the program by
// timing calls into each module's public functions and the existing
// interface seams. See README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports: its metrics, how many operations
// it attempted and how many failed, and every correctness violation found.
type outcome struct {
	metrics    map[string]metric
	attempted  int
	failed     int
	violations []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// check records a violation when ok is false and reports ok.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	if !ok {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
	return ok
}

// opts carries the command line into a workload.
type opts struct {
	seed   uint64
	budget time.Duration
	trace  bool
}

var workloads = map[string]func(opts) (*outcome, error){
	"sim-fattree":     runSimFatTree,
	"sim-steady":      runSimSteady,
	"serve-journaled": runServeJournaled,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sim-fattree, sim-steady or serve-journaled")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measurement budget in wall-clock seconds")
		trace   = flag.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced and prints per-layer metrics")
		pin     = flag.Int("pin", 0, "print the pinned simulator outputs of input seeds 1..N and exit")
		history = flag.Bool("history", false, "run the historical k=8 reference-path rows and print them as JSON")
	)
	flag.Parse()
	switch {
	case *history:
		if err := printHistory(); err != nil {
			fatal(err)
		}
		return
	case *pin > 0:
		if err := printPins(*pin); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	want, err := expectedMetrics(*trace == 1)
	if err != nil {
		fatal(err)
	}
	out, err := run(opts{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fatal(err)
	}
	final := map[string]metric{}
	names := make([]string, 0, len(want))
	for n, unit := range want {
		m, ok := out.metrics[n]
		switch {
		case !ok:
			fatal(fmt.Errorf("workload %s did not measure metric %s", *name, n))
		case m.Unit != unit:
			fatal(fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", n, m.Unit, unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			fatal(fmt.Errorf("metric %s is not a finite number", n))
		}
		final[n] = m
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-24s %16.6f %s\n", n, final[n].Value, final[n].Unit)
	}
	errRate := float64(out.failed) / float64(out.attempted)
	fmt.Printf("%-24s %16.6f (%d failed of %d attempted)\n", "error_rate", errRate, out.failed, out.attempted)
	for _, v := range out.violations {
		fmt.Fprintln(os.Stderr, "CORRECTNESS FAILURE:", v)
	}
	correct := len(out.violations) == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, final})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// expectedMetrics reads the metric set the result line must carry from
// BENCHMARK.json at the checkout root, so a workload that forgets a metric
// fails here rather than in whoever reads the result.
func expectedMetrics(perLayer bool) (map[string]string, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json (run from the checkout root): %w", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if perLayer {
		list = spec.PerLayer
	}
	want := make(map[string]string, len(list))
	for _, m := range list {
		want[m.Name] = m.Unit
	}
	return want, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
