package core

import (
	"testing"

	"repro/internal/stats"
)

// walkerPathConfig builds the swap-run collapse's target shape
// directly: a path graph of n blank (q2) nodes over a forced sparse
// store, with a single walker (w) parked at node pos. The only enabled
// pairs are the walker's incident edges, and every landing is a
// deterministic swap, so the batch engine's census stays frozen while
// the walker stays interior — exactly the regime the analytic collapse
// tier absorbs. The configurations Run builds from the null state reach
// this shape only deep into a Simple-Global-Line run at sparse sizes,
// far beyond unit-test budgets, so the tests below construct it.
func walkerPathConfig(t *testing.T, p *Protocol, n, pos int) *Config {
	t.Helper()
	cfg := NewConfig(p, n)
	cfg.store = &sparseStore{n: n, adj: make([][]int32, n)}
	for u := 0; u < n; u++ {
		cfg.SetNode(u, 1) // q2
	}
	cfg.SetNode(pos, 2) // w
	for u := 0; u+1 < n; u++ {
		cfg.SetEdge(u, u+1, true)
	}
	return cfg
}

// TestBatchIndexApplySwapFast pins the census-invariant swap surgery:
// on a single-walker path every interior swap satisfies the surgery's
// preconditions (both endpoints degree 2, outer neighbors sharing a
// state), and the surgery must leave every cached weight and the
// census generation untouched while keeping the full index — lists,
// mirrors, slots — brute-force verifiable. Swaps onto a path end must
// be declined and handled by the generic applySwap, which does move
// the census (the cell loses an edge).
func TestBatchIndexApplySwapFast(t *testing.T) {
	t.Parallel()
	p := batchProtocols(t)["walker"]
	const n = 48
	cfg := walkerPathConfig(t, p, n, n/2)
	ci := NewClassIndex(cfg)
	verifyClassIndex(t, ci, cfg)
	rng := NewRNG(11)
	fast, declined := 0, 0
	for step := 0; step < 3000; step++ {
		u, v := ci.Sample(rng)
		a, b := cfg.Node(u), cfg.Node(v)
		if !cfg.Edge(u, v) || !ci.swapCell[ci.classID(a, b)] {
			t.Fatalf("step %d: sampled pair (%d,%d) is not a swap-cell edge", step, u, v)
		}
		before := snapshotWeights(ci)
		genBefore := ci.gen
		cfg.nodes[u], cfg.nodes[v] = b, a
		if ci.applySwapFast(u, v, a, b) {
			fast++
			if ci.gen != genBefore {
				t.Fatalf("step %d: applySwapFast bumped gen", step)
			}
			if !weightsEqual(before, snapshotWeights(ci)) {
				t.Fatalf("step %d: applySwapFast moved a cached weight", step)
			}
		} else {
			declined++
			ci.applySwap(u, v, a, b)
		}
		verifyClassIndex(t, ci, cfg)
	}
	if fast == 0 || declined == 0 {
		t.Fatalf("walk exercised %d fast and %d declined swaps; want both > 0", fast, declined)
	}
}

// TestBatchCollapseWalkLaw pins the analytic tier against a literal
// simulation. Both arms run the single-walker path to a fixed step
// budget: the literal arm applies one uniform pair draw per step
// (the baseline scheduler, nothing skipped), the batch arm runs
// batchLoop — geometric skips, bucket plans, swap-run collapse,
// hypergeometric fast-forward at the budget's end. The walker's final
// position is a complete summary of the run (the path never changes,
// only the walker moves), so a two-sample chi-square on its
// distribution at α = 0.001 pins the collapse to the literal law.
// Seeds are fixed: a failure is a law change, not noise.
//
// The batch arm must also actually collapse (CollapsedLandings > 0,
// FastForwardEpochs > 0 in aggregate) and every run must satisfy the
// accounting invariant
// Landings + SkippedSteps + CollapsedLandings = Steps.
func TestBatchCollapseWalkLaw(t *testing.T) {
	t.Parallel()
	p := batchProtocols(t)["walker"]
	trials := 200
	if testing.Short() {
		trials = 60
	}
	const (
		n        = 32
		maxSteps = 1 << 16
		buckets  = 8
	)
	det := Detector{Trigger: TriggerEdge, Stable: func(*Config) bool { return false }}

	literal := func() []int64 {
		h := make([]int64, buckets)
		for trial := 0; trial < trials; trial++ {
			cfg := walkerPathConfig(t, p, n, n/2)
			rng := NewRNG(uint64(trial) + 1)
			for step := int64(0); step < maxSteps; step++ {
				u, v := rng.Pair(n)
				cfg.Apply(u, v, rng)
			}
			h[walkerPos(t, cfg)*buckets/n]++
		}
		return h
	}
	batch := func() []int64 {
		h := make([]int64, buckets)
		var collapsed, fastForwards int64
		for trial := 0; trial < trials; trial++ {
			cfg := walkerPathConfig(t, p, n, n/2)
			rng := NewRNG(uint64(trial) + 1)
			ix := NewClassIndex(cfg)
			res := batchLoop(p, cfg, det, Options{}, maxSteps, 1, rng, ix)
			m := res.Metrics
			if m.Landings+m.SkippedSteps+m.CollapsedLandings != res.Steps {
				t.Fatalf("trial %d: Landings %d + SkippedSteps %d + CollapsedLandings %d != Steps %d",
					trial, m.Landings, m.SkippedSteps, m.CollapsedLandings, res.Steps)
			}
			collapsed += m.CollapsedLandings
			fastForwards += m.FastForwardEpochs
			h[walkerPos(t, cfg)*buckets/n]++
		}
		if collapsed == 0 {
			t.Fatal("batch arm never engaged the analytic swap-run collapse")
		}
		if fastForwards == 0 {
			t.Fatal("batch arm never fast-forwarded an epoch")
		}
		return h
	}

	a := literal()
	b := batch()
	stat, df := stats.ChiSquareTwoSample(a, b)
	if df == 0 {
		t.Fatalf("degenerate walk: histograms %v vs %v", a, b)
	}
	if crit := stats.ChiSquareCritical(df, 0.001); stat > crit {
		t.Fatalf("final-position chi-square %.2f > critical %.2f (df %d)\nliteral %v\nbatch   %v",
			stat, crit, df, a, b)
	}
}

// walkerPos returns the unique walker node of a walker-path
// configuration.
func walkerPos(t *testing.T, cfg *Config) int {
	t.Helper()
	pos := -1
	for u := 0; u < cfg.N(); u++ {
		if cfg.Node(u) == 2 {
			if pos >= 0 {
				t.Fatalf("two walkers: nodes %d and %d", pos, u)
			}
			pos = u
		}
	}
	if pos < 0 {
		t.Fatal("walker vanished")
	}
	return pos
}
