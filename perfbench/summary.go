package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile for it to count as measured rather than estimated.
const minBeyond = 10

// samplesForTail is the smallest sample count at which the nearest-rank
// q-quantile has at least minBeyond samples beyond it.
func samplesForTail(q float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return n
		}
	}
}

// histGrowth is the width ratio of the duration histogram's buckets.
const histGrowth = 1.01

// histBuckets covers 1 ns to 2⁴⁰ ns (about 18 minutes) in 1% buckets.
var histBuckets = int(40*math.Ln2/math.Log(histGrowth)) + 2

// durationHist holds per-trial wall times in fixed memory: log-spaced
// buckets 1% wide, each with its count and the sum of its values. The
// benchmark's own bookkeeping thereby stays the same size however many
// trials a run completes — a slice of every duration would grow with the
// program's speed and move peak_heap_mb.
type durationHist struct {
	counts []int64
	sums   []float64
	n      int
}

func newDurationHist() *durationHist {
	return &durationHist{counts: make([]int64, histBuckets), sums: make([]float64, histBuckets)}
}

func (h *durationHist) add(ns int64) {
	i := 0
	if ns > 1 {
		i = min(int(math.Log(float64(ns))/math.Log(histGrowth)), histBuckets-1)
	}
	h.counts[i]++
	h.sums[i] += float64(ns)
	h.n++
}

// quantile returns the nearest-rank q-quantile to within its bucket's
// 1% width — the mean of the samples in the bucket holding rank
// ⌈q·n⌉ — and the number of samples beyond that rank. An empty
// histogram yields (0, 0).
func (h *durationHist) quantile(q float64) (ns float64, beyond int) {
	if h.n == 0 {
		return 0, 0
	}
	rank := min(max(int(math.Ceil(q*float64(h.n))), 1), h.n)
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return h.sums[i] / float64(c), h.n - rank
		}
	}
	return 0, 0
}

// median returns the median of xs (mean of the middle pair for even
// lengths), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// endToEnd holds one run's user-facing metrics. The JSON names and
// units live in e2eMetrics.
type endToEnd struct {
	SetupS     float64
	TrialsPerS float64
	StepsPerS  float64
	P50Ms      float64
	P99Ms      float64
	PeakHeapMB float64
	FailedFrac float64

	// Setups is the number of set-ups behind SetupS, Samples the number
	// of per-trial wall times behind the percentiles and Beyond99 how
	// many of them lie beyond the p99.
	Setups   int
	Samples  int
	Beyond99 int
}

// roundTotals is one round's completed trials, their scheduler steps,
// the round's timed host time, and the largest live heap, in bytes, of
// its heap samples.
type roundTotals struct {
	completed int64
	steps     int64
	measured  time.Duration
	peakHeap  int64
}

// runTotals is what a measured run feeds into the end-to-end
// arithmetic.
type runTotals struct {
	setups    []time.Duration // one per set-up repetition
	rounds    []roundTotals
	durations *durationHist // per-trial wall time
	attempted int
	failed    int
}

// computeEndToEnd derives the end-to-end metrics of one run. The
// throughputs are medians over rounds — every round runs the same mix
// of trials, so a burst of host noise moves one round, not the
// result — and count only completed trials (attempted − failed). The
// peak heap is the median over rounds of each round's largest sample.
func computeEndToEnd(t runTotals) endToEnd {
	setups := make([]float64, len(t.setups))
	for i, d := range t.setups {
		setups[i] = d.Seconds()
	}
	e := endToEnd{SetupS: median(setups), Setups: len(setups)}
	if t.attempted > 0 {
		e.FailedFrac = float64(t.failed) / float64(t.attempted)
	}
	var trials, steps, heaps []float64
	for _, r := range t.rounds {
		if secs := r.measured.Seconds(); secs > 0 {
			trials = append(trials, float64(r.completed)/secs)
			steps = append(steps, float64(r.steps)/secs)
		}
		heaps = append(heaps, float64(r.peakHeap)/(1<<20))
	}
	e.TrialsPerS, e.StepsPerS, e.PeakHeapMB = median(trials), median(steps), median(heaps)
	p50, _ := t.durations.quantile(0.50)
	p99, beyond := t.durations.quantile(0.99)
	e.P50Ms = p50 / 1e6
	e.P99Ms = p99 / 1e6
	e.Samples = t.durations.n
	e.Beyond99 = beyond
	return e
}

// metricDef names one reported metric.
type metricDef struct {
	Name string
	Unit string
}

// e2eMetrics are the end-to-end metrics in report order. failed_frac is
// reported in the text report and carried exactly by the result line's
// attempted/failed fields; it is 0 on a correct run, so it cannot be a
// bounded benchmark metric.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"trials_per_s", "1/s"},
	{"steps_per_s", "1/s"},
	{"trial_p50_ms", "ms"},
	{"trial_p99_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// values maps each end-to-end metric name to its value.
func (e endToEnd) values() map[string]float64 {
	return map[string]float64{
		"setup_s":      e.SetupS,
		"trials_per_s": e.TrialsPerS,
		"steps_per_s":  e.StepsPerS,
		"trial_p50_ms": e.P50Ms,
		"trial_p99_ms": e.P99Ms,
		"peak_heap_mb": e.PeakHeapMB,
	}
}
