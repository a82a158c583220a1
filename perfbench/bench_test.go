package main

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/trace"
)

func TestQuantileNeedsTenSamplesBeyondP99(t *testing.T) {
	if got := samplesForTail(0.99); got != 1000 {
		t.Fatalf("samplesForTail(0.99) = %d, want 1000", got)
	}
	for _, tc := range []struct {
		n          int
		wantV      int64
		wantBeyond int
	}{
		{1000, 990, 10},
		{999, 990, 9},
		{2000, 1980, 20},
		{1, 1, 0},
	} {
		h := newDurationHist()
		for i := 1; i <= tc.n; i++ {
			h.add(int64(i) * 1e6)
		}
		v, beyond := h.quantile(0.99)
		if want := float64(tc.wantV) * 1e6; math.Abs(v-want) > 0.01*want || beyond != tc.wantBeyond {
			t.Errorf("n=%d: p99 = %g with %d beyond, want %d ms ±1%% with %d", tc.n, v, beyond, tc.wantV, tc.wantBeyond)
		}
	}
	if v, _ := histOf(1, 2, 3, 4).quantile(0.5); v != 2 {
		t.Errorf("p50 of 1..4 = %g, want the nearest-rank 2", v)
	}
}

func histOf(ns ...int64) *durationHist {
	h := newDurationHist()
	for _, v := range ns {
		h.add(v)
	}
	return h
}

func TestDurationHistQuantileWithinOnePercent(t *testing.T) {
	h := newDurationHist()
	for i := int64(1); i <= 1000; i++ {
		h.add(i * 1e6)
	}
	for _, tc := range []struct {
		q          float64
		want       float64
		wantBeyond int
	}{{0.5, 500e6, 500}, {0.99, 990e6, 10}, {1, 1000e6, 0}} {
		got, beyond := h.quantile(tc.q)
		if math.Abs(got-tc.want) > 0.01*tc.want || beyond != tc.wantBeyond {
			t.Errorf("q%g = %g with %d beyond, want %g ±1%% with %d", tc.q, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if got, _ := histOf(7).quantile(0.99); got != 7 {
		t.Errorf("a single sample's quantile = %g, want 7", got)
	}
	if got, beyond := newDurationHist().quantile(0.5); got != 0 || beyond != 0 {
		t.Errorf("empty histogram quantile = (%g, %d)", got, beyond)
	}
}

func TestEndToEndArithmetic(t *testing.T) {
	e := computeEndToEnd(runTotals{
		setups: []time.Duration{3 * time.Second, time.Second, 2 * time.Second},
		rounds: []roundTotals{
			{completed: 1, steps: 400, measured: time.Second, peakHeap: 4 << 20},
			{completed: 2, steps: 500, measured: time.Second, peakHeap: 1 << 20},
			{completed: 6, steps: 200, measured: 2 * time.Second, peakHeap: 5 << 20},
		},
		durations: histOf(4e6, 1e6, 3e6, 2e6),
		attempted: 4,
		failed:    1,
	})
	want := endToEnd{SetupS: 2, TrialsPerS: 2, StepsPerS: 400, P50Ms: 2, P99Ms: 4,
		PeakHeapMB: 4, FailedFrac: 0.25, Setups: 3, Samples: 4, Beyond99: 0}
	if e != want {
		t.Fatalf("computeEndToEnd = %+v, want %+v", e, want)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", m)
	}
}

// tinyPlan is a one-point campaign plan of cycle-cover at n = 8.
func tinyPlan(t *testing.T, trials int, maxSteps int64, expectConverge bool, tgt target) *plan {
	t.Helper()
	c, err := protocols.Lookup("cycle-cover")
	if err != nil {
		t.Fatal(err)
	}
	cp := campaign.Point{Protocol: "cycle-cover", N: 8, Trials: trials, Proto: c.Proto, Detector: c.Detector, MaxSteps: maxSteps, IncludeUnconverged: true}
	p := &plan{mode: checkInline}
	p.add(cp, pointFor(cp, expectConverge, tgt))
	p.groups = [][]int{{0}}
	return p
}

func TestTinyWorkloadMetrics(t *testing.T) {
	tgt, err := protocolTarget("cycle-cover")
	if err != nil {
		t.Fatal(err)
	}
	p := tinyPlan(t, 12, 0, true, tgt)
	r := newRunner(7, nil)
	rounds, err := runRounds(p, r, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 || r.attempted != 24 || r.failed != 0 {
		t.Fatalf("rounds=%d attempted=%d failed=%d (%v), want 2, 24, 0", rounds, r.attempted, r.failed, r.failures)
	}
	if r.steps != r.counters.steps || r.landings+r.skipped+r.collapsed != r.steps {
		t.Fatalf("steps: records %d, results %d, landings+skipped+collapsed %d", r.steps, r.counters.steps, r.landings+r.skipped+r.collapsed)
	}
	var steps int64
	var measured time.Duration
	for _, rt := range r.rounds {
		if rt.completed != 12 {
			t.Fatalf("round completed %d trials, want 12", rt.completed)
		}
		steps += rt.steps
		measured += rt.measured
	}
	if steps != r.steps || measured != r.measured || len(r.rounds) != 2 {
		t.Fatalf("rounds %+v do not add up to %d steps in %v", r.rounds, r.steps, r.measured)
	}
	e := computeEndToEnd(runTotals{setups: []time.Duration{time.Millisecond}, rounds: r.rounds,
		durations: r.durations, attempted: r.attempted, failed: r.failed})
	rate := func(x float64, d time.Duration) float64 { return x / d.Seconds() }
	a, b := r.rounds[0], r.rounds[1]
	wantTrials := (rate(12, a.measured) + rate(12, b.measured)) / 2
	wantSteps := (rate(float64(a.steps), a.measured) + rate(float64(b.steps), b.measured)) / 2
	if math.Abs(e.TrialsPerS-wantTrials) > 1e-9*wantTrials || math.Abs(e.StepsPerS-wantSteps) > 1e-9*wantSteps {
		t.Fatalf("throughputs %g trials/s, %g steps/s, want %g and %g", e.TrialsPerS, e.StepsPerS, wantTrials, wantSteps)
	}
	if e.Samples != 24 || e.P50Ms <= 0 || e.P99Ms < e.P50Ms {
		t.Fatalf("percentiles %+v", e)
	}
	if p.points[0].landings == 0 || len(r.guard(p.points)) != 0 {
		t.Fatalf("guard on a landing point: %v", r.guard(p.points))
	}
}

func TestFailedFracCounting(t *testing.T) {
	// Unconverged trials fail only on points expected to converge;
	// a failing output check fails a trial that did converge.
	unconverged := tinyPlan(t, 5, 2, true, nil)
	budgeted := tinyPlan(t, 5, 2, false, nil)
	wrong := tinyPlan(t, 5, 0, true, func(*core.Config) error { return errNotTarget })
	r := newRunner(3, nil)
	for _, p := range []*plan{unconverged, budgeted, wrong} {
		if _, err := p.round(r, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if r.attempted != 15 || r.failed != 10 {
		t.Fatalf("attempted=%d failed=%d, want 15 and 10", r.attempted, r.failed)
	}
	e := computeEndToEnd(runTotals{rounds: []roundTotals{{completed: int64(r.attempted - r.failed), measured: time.Second}},
		durations: r.durations, attempted: r.attempted, failed: r.failed})
	if e.FailedFrac != 10.0/15 || e.TrialsPerS != 5 {
		t.Fatalf("failed_frac %g and trials_per_s %g, want 2/3 and 5", e.FailedFrac, e.TrialsPerS)
	}
	for _, f := range r.failures {
		if !strings.Contains(f, "converge") && !strings.Contains(f, errNotTarget.Error()) {
			t.Errorf("unexpected failure reason %q", f)
		}
	}
}

var errNotTarget = errors.New("not the target network")

func TestGuardCatchesDegreeDoublingDefaultStart(t *testing.T) {
	dd, err := protocols.Lookup("degree-doubling")
	if err != nil {
		t.Fatal(err)
	}
	// The registry's all-q0 start leaves no enabled pair.
	cp := campaign.Point{Protocol: "degree-doubling", N: 32, Trials: 2, Proto: dd.Proto, Detector: dd.Detector, MaxSteps: 1 << 12, IncludeUnconverged: true}
	p := &plan{mode: checkInline, groups: [][]int{{0}}}
	p.add(cp, pointFor(cp, false, nil))
	r := newRunner(1, nil)
	if _, err := p.round(r, 0, 0); err != nil {
		t.Fatal(err)
	}
	if bad := r.guard(p.points); len(bad) != 1 {
		t.Fatalf("guard = %v, want one zero-landing point", bad)
	}

	// The paper-tables workload builds degree-doubling from its
	// non-uniform start, so it lands.
	pt, err := setupPaperTables()
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, point := range pt.points {
		if point.protocol == "degree-doubling" {
			found++
			if point.initial == nil {
				t.Errorf("%s starts from the all-q0 default", point.label)
			}
		}
	}
	if found == 0 {
		t.Fatal("paper-tables has no degree-doubling point")
	}
}

func TestCliquesOutputAcceptsLeftoverStar(t *testing.T) {
	g := graph.New(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {6, 7}} {
		g.AddEdge(e[0], e[1])
	}
	if !isCliquesOutput(g, 3) {
		t.Error("two triangles plus a leftover edge rejected")
	}
	g.AddEdge(5, 6)
	if isCliquesOutput(g, 3) {
		t.Error("a triangle joined to the leftover accepted")
	}
}

func TestCheckersOnTracedRun(t *testing.T) {
	c, err := protocols.Lookup("global-star")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := trace.NewNDJSON(&buf)
	res, err := core.Run(c.Proto, 12, core.Options{Seed: 5, Detector: c.Detector, Events: sink})
	if err != nil || sink.Flush() != nil {
		t.Fatal(err)
	}
	tgt, err := protocolTarget("global-star")
	if err != nil {
		t.Fatal(err)
	}
	pt := &point{label: "global-star n=12", target: tgt}
	if err := checkTrial(pt, res); err != nil {
		t.Fatalf("checkTrial: %v", err)
	}
	if _, err := checkReplay(buf.Bytes(), core.NewConfig(c.Proto, 12), res.Final); err != nil {
		t.Fatalf("checkReplay: %v", err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	last := -1
	for i, l := range lines {
		if strings.Contains(l, `"kind":"step"`) {
			last = i
		}
	}
	dropped := strings.Join(slices.Delete(lines, last, last+1), "")
	if _, err := checkReplay([]byte(dropped), core.NewConfig(c.Proto, 12), res.Final); err == nil {
		t.Fatal("a stream missing its last step replayed to the final configuration")
	}
	bad := res.Final.Clone()
	bad.SetEdge(0, 1, !bad.Edge(0, 1))
	res.Final = bad
	if err := checkTrial(pt, res); err == nil {
		t.Fatal("a star with one edge flipped passed the target check")
	}
	res.Metrics.Landings++
	if err := checkTrial(pt, res); err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("broken step accounting: %v", err)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40 (10–40 and 90–100)", got)
	}
	tr := newTracer()
	tr.spans = append(tr.spans,
		span{ID: 1, Name: "campaign.Execute", Start: 0, End: 100},
		span{ID: 2, Parent: 1, Name: "core.Run", Start: 0, End: 60},
		span{ID: 3, Parent: 1, Name: "core.Run", Start: 50, End: 90})
	tr.detNS.Store(30)
	self := tr.selfTimes()
	if self["campaign"] != 10 || self["core"] != 70 || self["protocols"] != 30 {
		t.Fatalf("self times %v, want campaign 10, core 70, protocols 30", self)
	}
}
