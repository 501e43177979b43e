package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// batchSampler times a short operation in batches. fn returns the seconds
// of its own work that count, so it can leave preparation and teardown out.
// Each batch runs fn enough times to count at least minBatch (calibrated
// from the first call), after a GC so garbage from earlier work is not
// collected inside a batch. Millisecond-scale set-up and restore paths are
// measured this way, with batches spread over the run, so one run's figure
// rides neither on a single sample nor on one moment of the host's speed.
type batchSampler struct {
	minBatch time.Duration
	fn       func() (float64, error)
	perBatch int
	means    []float64
}

func (b *batchSampler) sample(batches int) error {
	if b.perBatch == 0 {
		runtime.GC()
		first, err := b.fn()
		if err != nil {
			return err
		}
		b.perBatch = 1
		if first < b.minBatch.Seconds() {
			b.perBatch = int(b.minBatch.Seconds()/(first+1e-9)) + 1
		}
	}
	for i := 0; i < batches; i++ {
		runtime.GC()
		total := 0.0
		for j := 0; j < b.perBatch; j++ {
			s, err := b.fn()
			if err != nil {
				return err
			}
			total += s
		}
		b.means = append(b.means, total/float64(b.perBatch))
	}
	return nil
}

// median is the median per-call seconds over the batches sampled so far.
func (b *batchSampler) median() float64 { return median(b.means) }

// repeatMedian samples fn in the given number of consecutive batches and
// returns the median per-call seconds.
func repeatMedian(batches int, minBatch time.Duration, fn func() (float64, error)) (float64, error) {
	b := &batchSampler{minBatch: minBatch, fn: fn}
	err := b.sample(batches)
	return b.median(), err
}

// samplePoints is how many batches a run spreads over its trials or
// cycles for each batch-sampled figure.
const samplePoints = 30

// batchesPer spreads samplePoints batches over n trials.
func batchesPer(n int) int { return (samplePoints + n - 1) / n }

// timed runs fn and returns its wall seconds.
func timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// fnv64 is an FNV-1a accumulator over 64-bit words (little-endian bytes).
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h *fnv64) mix(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv64((v >> (8 * i)) & 0xff)
		*h *= 1099511628211
	}
}

func (h *fnv64) mixFloat(f float64) { h.mix(math.Float64bits(f)) }

func (h fnv64) String() string { return fmt.Sprintf("%016x", uint64(h)) }
