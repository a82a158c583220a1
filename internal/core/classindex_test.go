package core

import (
	"testing"
)

// batchProtocols is the index battery plus a protocol whose hot rule
// is a deterministic edge swap — the batch kernel's target shape,
// which the shared battery lacks.
func batchProtocols(t *testing.T) map[string]*Protocol {
	t.Helper()
	m := indexProtocols(t)
	m["walker"] = MustProtocol("walker", []string{"q0", "q2", "w"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 2, OutEdge: true},
		{A: 2, B: 1, Edge: true, OutA: 1, OutB: 2, OutEdge: true}, // the swap
		{A: 2, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
	})
	return m
}

// storeLabels names the two edge stores in subtest names.
var storeLabels = map[bool]string{false: "dense-store", true: "sparse-store"}

// newStoreConfig returns the all-q0 configuration on the dense store,
// or on a forced sparse adjacency store when sparse is set.
func newStoreConfig(p *Protocol, n int, sparse bool) *Config {
	cfg := NewConfig(p, n)
	if sparse {
		cfg.store = &sparseStore{n: n, adj: make([][]int32, n)}
	}
	return cfg
}

// verifyClassIndex cross-checks every cached quantity of the census
// index against brute-force scans over the pairs the scheduler can
// draw (every pair, or the permitted ones under a topology): the
// enabled totals and quiescence answers, the per-sub-bucket weights,
// the per-class active-edge counts (effMask ≠ 0 only — the others are
// deliberately unmaintained), the edge list plus mirror structure of
// every listed class, and under a topology the permitted-pair counts
// and lists.
func verifyClassIndex(t *testing.T, ci *ClassIndex, cfg *Config) {
	t.Helper()
	p := cfg.Protocol()
	q := p.Size()
	var enabled, edgeEnabled int64
	w := make([]int64, 2*q*q)
	we := make([]int64, 2*q*q)
	edgeCount := make([]int64, q*q)
	pairCnt := make([]int64, q*q)
	visit := func(u, v int) {
		id := ci.classID(cfg.Node(u), cfg.Node(v))
		a, b := State(id/q), State(id%q)
		e := cfg.Edge(u, v)
		pairCnt[id]++
		if e {
			edgeCount[id]++
		}
		if p.EffectiveOn(a, b, e) {
			enabled++
			w[2*id+boolToInt(e)]++
		}
		if p.EdgeEffectiveOn(a, b, e) {
			edgeEnabled++
			we[2*id+boolToInt(e)]++
		}
	}
	if topo := cfg.Topology(); topo != nil {
		for i := 0; i < topo.PairCount(); i++ {
			visit(topo.PairAt(i))
		}
	} else {
		for u := 0; u < cfg.N(); u++ {
			for v := u + 1; v < cfg.N(); v++ {
				visit(u, v)
			}
		}
	}
	if ci.Enabled() != enabled {
		t.Fatalf("Enabled() = %d, brute force %d", ci.Enabled(), enabled)
	}
	if ci.EdgeEnabled() != edgeEnabled {
		t.Fatalf("EdgeEnabled() = %d, brute force %d", ci.EdgeEnabled(), edgeEnabled)
	}
	if ci.Quiescent() != cfg.Quiescent() {
		t.Fatalf("Quiescent() = %v, scan %v", ci.Quiescent(), cfg.Quiescent())
	}
	if ci.EdgeQuiescent() != cfg.EdgeQuiescent() {
		t.Fatalf("EdgeQuiescent() = %v, scan %v", ci.EdgeQuiescent(), cfg.EdgeQuiescent())
	}
	mirrored := 0
	for _, m := range ci.mirror {
		mirrored += len(m)
	}
	listed := 0
	for id := 0; id < q*q; id++ {
		if id/q > id%q {
			continue // classes live at a ≤ b
		}
		if ci.w[2*id] != w[2*id] || ci.w[2*id+1] != w[2*id+1] {
			t.Fatalf("class %d weights = (%d,%d), brute force (%d,%d)",
				id, ci.w[2*id], ci.w[2*id+1], w[2*id], w[2*id+1])
		}
		if ci.we[2*id] != we[2*id] || ci.we[2*id+1] != we[2*id+1] {
			t.Fatalf("class %d edge-enabled weights = (%d,%d), brute force (%d,%d)",
				id, ci.we[2*id], ci.we[2*id+1], we[2*id], we[2*id+1])
		}
		if ci.effMask[id] != 0 && ci.edgeCount[id] != edgeCount[id] {
			t.Fatalf("class %d edge count = %d, brute force %d", id, ci.edgeCount[id], edgeCount[id])
		}
		if ci.topo != nil {
			verifyPairCensus(t, ci, cfg, id, pairCnt[id])
		}
		if !ci.listed[id] {
			if len(ci.edgeList[id]) != 0 {
				t.Fatalf("unlisted class %d carries %d list entries", id, len(ci.edgeList[id]))
			}
			continue
		}
		if int64(len(ci.edgeList[id])) != edgeCount[id] {
			t.Fatalf("listed class %d holds %d edges, brute force %d", id, len(ci.edgeList[id]), edgeCount[id])
		}
		listed += len(ci.edgeList[id])
		for slot, key := range ci.edgeList[id] {
			u, v := int(key>>32), int(key&0xffffffff)
			if u >= v {
				t.Fatalf("class %d slot %d: key order (%d,%d)", id, slot, u, v)
			}
			if !cfg.Edge(u, v) {
				t.Fatalf("class %d lists inactive edge {%d,%d}", id, u, v)
			}
			if got := ci.classID(cfg.Node(u), cfg.Node(v)); got != id {
				t.Fatalf("edge {%d,%d} listed in class %d but classifies as %d", u, v, id, got)
			}
			found := false
			for _, me := range ci.mirror[u] {
				if me.other == int32(v) {
					if int(me.class) != id || int(me.slot) != slot {
						t.Fatalf("edge {%d,%d} mirror entry (class %d, slot %d), want (%d, %d)",
							u, v, me.class, me.slot, id, slot)
					}
					found = true
				}
			}
			if !found {
				t.Fatalf("edge {%d,%d} has no mirror entry", u, v)
			}
		}
	}
	if mirrored != listed {
		t.Fatalf("mirrors hold %d entries for %d listed edges", mirrored, listed)
	}
}

// verifyPairCensus checks class id's permitted-pair census: the count
// for classes some rule reads, and for classes whose non-edges the
// sampler draws a list of exactly the class's permitted pairs, each at
// the slot pairSlot records.
func verifyPairCensus(t *testing.T, ci *ClassIndex, cfg *Config, id int, want int64) {
	t.Helper()
	if ci.effMask[id] != 0 && ci.pairCnt[id] != want {
		t.Fatalf("class %d permitted-pair count = %d, brute force %d", id, ci.pairCnt[id], want)
	}
	list := ci.pairList[id]
	if ci.effMask[id]&effNonEdge == 0 {
		if len(list) != 0 {
			t.Fatalf("class %d without sampled non-edges lists %d pairs", id, len(list))
		}
		return
	}
	if int64(len(list)) != want {
		t.Fatalf("class %d lists %d permitted pairs, brute force %d", id, len(list), want)
	}
	for slot, pid := range list {
		u, v := cfg.Topology().PairAt(int(pid))
		if got := ci.classID(cfg.Node(u), cfg.Node(v)); got != id {
			t.Fatalf("pair {%d,%d} listed in class %d but classifies as %d", u, v, id, got)
		}
		if int(ci.pairSlot[pid]) != slot {
			t.Fatalf("pair {%d,%d} at slot %d, pairSlot says %d", u, v, slot, ci.pairSlot[pid])
		}
	}
}

// snapshotWeights copies the cached sub-bucket weight vector.
func snapshotWeights(ci *ClassIndex) []int64 {
	out := make([]int64, 0, len(ci.w)+len(ci.we))
	out = append(out, ci.w...)
	return append(out, ci.we...)
}

func weightsEqual(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClassIndexTracksApply drives each battery protocol with random
// interactions through Config.Apply + ClassIndex.Update and verifies
// the full index against brute force after every effective step — on
// both edge-storage strategies.
func TestClassIndexTracksApply(t *testing.T) {
	t.Parallel()
	for name, p := range batchProtocols(t) {
		for _, sparse := range []bool{false, true} {
			t.Run(name+"/"+storeLabels[sparse], func(t *testing.T) {
				t.Parallel()
				const n = 12
				rng := NewRNG(7)
				cfg := newStoreConfig(p, n, sparse)
				ci := NewClassIndex(cfg)
				verifyClassIndex(t, ci, cfg)
				for step := 0; step < 2000; step++ {
					u, v := rng.Pair(n)
					beforeU, beforeV := cfg.Node(u), cfg.Node(v)
					effective, edgeChanged := cfg.Apply(u, v, rng)
					if effective {
						ci.Update(u, v, beforeU, beforeV, edgeChanged)
						verifyClassIndex(t, ci, cfg)
					}
				}
			})
		}
	}
}

// TestBatchIndexTracksApply pins the census-generation law the batch
// engine's plans rely on: through Update on both edge stores, gen
// advances exactly when some cached sub-bucket weight changes value.
func TestBatchIndexTracksApply(t *testing.T) {
	t.Parallel()
	for name, p := range batchProtocols(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, sparse := range []bool{false, true} {
				const n = 12
				rng := NewRNG(7)
				cfg := newStoreConfig(p, n, sparse)
				ci := NewClassIndex(cfg)
				for step := 0; step < 2000; step++ {
					u, v := rng.Pair(n)
					beforeU, beforeV := cfg.Node(u), cfg.Node(v)
					before := snapshotWeights(ci)
					genBefore := ci.gen
					effective, edgeChanged := cfg.Apply(u, v, rng)
					if !effective {
						continue
					}
					ci.Update(u, v, beforeU, beforeV, edgeChanged)
					changed := !weightsEqual(before, snapshotWeights(ci))
					if bumped := ci.gen != genBefore; changed != bumped {
						t.Fatalf("%s step %d: weights changed=%v but gen bumped=%v", storeLabels[sparse], step, changed, bumped)
					}
				}
			}
		})
	}
}

// TestClassIndexTopologyCensus drives the permitted-pair census under
// a G(n,p) topology through all three maintenance paths — Update after
// interactions on permitted pairs, and the Mutator hooks NodeChanged
// and EdgeChanged after out-of-band writes — from a random start, and
// verifies the full index against brute force over the permitted pairs
// after every change, on both edge stores.
func TestClassIndexTopologyCensus(t *testing.T) {
	t.Parallel()
	spec := &TopologySpec{Kind: TopoGnp, Param: 0.4}
	for name, p := range batchProtocols(t) {
		for _, sparse := range []bool{false, true} {
			t.Run(name+"/"+storeLabels[sparse], func(t *testing.T) {
				t.Parallel()
				const n = 14
				topo, err := spec.Realize(n, 3)
				if err != nil {
					t.Fatal(err)
				}
				rng := NewRNG(13)
				cfg := newStoreConfig(p, n, sparse)
				cfg.topo = topo
				for u := 0; u < n; u++ {
					cfg.SetNode(u, State(rng.IntN(p.Size())))
				}
				for i := 0; i < topo.PairCount(); i++ {
					if u, v := topo.PairAt(i); rng.Coin() {
						cfg.SetEdge(u, v, true)
					}
				}
				ci := NewClassIndex(cfg)
				verifyClassIndex(t, ci, cfg)
				updates, nodeWrites, edgeWrites := 0, 0, 0
				for step := 0; step < 1500; step++ {
					switch rng.IntN(8) {
					case 0:
						u := rng.IntN(n)
						before := cfg.Node(u)
						cfg.SetNode(u, State(rng.IntN(p.Size())))
						ci.NodeChanged(u, before)
						nodeWrites++
					case 1:
						u, v := topo.SamplePair(rng)
						cfg.SetEdge(u, v, !cfg.Edge(u, v))
						ci.EdgeChanged(u, v)
						edgeWrites++
					default:
						u, v := topo.SamplePair(rng)
						beforeU, beforeV := cfg.Node(u), cfg.Node(v)
						effective, edgeChanged := cfg.Apply(u, v, rng)
						if !effective {
							continue
						}
						ci.Update(u, v, beforeU, beforeV, edgeChanged)
						updates++
					}
					verifyClassIndex(t, ci, cfg)
				}
				if updates == 0 || nodeWrites == 0 || edgeWrites == 0 {
					t.Fatalf("exercised %d updates, %d node writes, %d edge writes; want all > 0", updates, nodeWrites, edgeWrites)
				}
			})
		}
	}
}

// TestClassIndexBuildFromArbitraryConfig pins the class-decomposition
// count against brute-force enabled-pair scans across randomized
// configurations (states and edges set directly), covering the
// construction path.
func TestClassIndexBuildFromArbitraryConfig(t *testing.T) {
	t.Parallel()
	for name, p := range indexProtocols(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := NewRNG(11)
			for trial := 0; trial < 20; trial++ {
				n := 2 + rng.IntN(14)
				cfg := NewConfig(p, n)
				for u := 0; u < n; u++ {
					cfg.SetNode(u, State(rng.IntN(p.Size())))
				}
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						cfg.SetEdge(u, v, rng.Coin())
					}
				}
				verifyClassIndex(t, NewClassIndex(cfg), cfg)
			}
		})
	}
}

// TestClassIndexAgreesWithPairIndex pins the two enabled-pair
// structures against each other while a run of random interactions
// evolves the configuration: the class decomposition must equal the
// materialized pair count at every effective step.
func TestClassIndexAgreesWithPairIndex(t *testing.T) {
	t.Parallel()
	for name, p := range indexProtocols(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const n = 14
			rng := NewRNG(23)
			cfg := NewConfig(p, n)
			ix := NewPairIndex(cfg)
			ci := NewClassIndex(cfg)
			for step := 0; step < 3000; step++ {
				u, v := rng.Pair(n)
				beforeU, beforeV := cfg.Node(u), cfg.Node(v)
				effective, edgeChanged := cfg.Apply(u, v, rng)
				if !effective {
					continue
				}
				ix.applied(u, v, beforeU, beforeV, edgeChanged)
				ci.Update(u, v, beforeU, beforeV, edgeChanged)
				if ci.Enabled() != int64(ix.Enabled()) {
					t.Fatalf("step %d: class decomposition %d, pair index %d", step, ci.Enabled(), ix.Enabled())
				}
				if ci.EdgeEnabled() != int64(ix.EdgeEnabled()) {
					t.Fatalf("step %d: edge classes %d, pair index %d", step, ci.EdgeEnabled(), ix.EdgeEnabled())
				}
			}
		})
	}
}

// TestClassIndexSample checks that Sample only returns enabled pairs
// and visits the whole enabled set in both orientations, including
// through the rejection path (active edges mixed into enabled classes).
func TestClassIndexSample(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["matching"]
	const n = 8
	cfg := NewConfig(p, n)
	ci := NewClassIndex(cfg)
	if ci.Enabled() != int64(pairCount(n)) {
		t.Fatalf("all-q0 matching should enable every pair, got %d", ci.Enabled())
	}
	rng := NewRNG(3)
	seen := make(map[[2]int]bool)
	for i := 0; i < 4000; i++ {
		u, v := ci.Sample(rng)
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			t.Fatalf("bad pair (%d,%d)", u, v)
		}
		if !p.EffectiveOn(cfg.Node(u), cfg.Node(v), cfg.Edge(u, v)) {
			t.Fatalf("sampled disabled pair (%d,%d)", u, v)
		}
		seen[[2]int{u, v}] = true
	}
	// Every ordered orientation of every pair should appear.
	if want := 2 * pairCount(n); len(seen) != want {
		t.Fatalf("sampled %d ordered pairs, want %d", len(seen), want)
	}
}

// TestClassIndexSampleSaturatedClass exercises the exact-walk fallback
// of sampleNonEdge: in a class where almost every pair already holds an
// active edge, rejection nearly always fails, yet the draw must remain
// uniform over the surviving non-edges.
func TestClassIndexSampleSaturatedClass(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["matching"] // q0-q0 non-edge pairs are enabled
	const n = 10
	cfg := NewConfig(p, n)
	// Activate every edge except {0,1} and {2,3}; the enabled set is
	// exactly those two non-edges.
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if (u == 0 && v == 1) || (u == 2 && v == 3) {
				continue
			}
			cfg.SetEdge(u, v, true)
		}
	}
	ci := NewClassIndex(cfg)
	if ci.Enabled() != 2 {
		t.Fatalf("want 2 enabled non-edges, got %d", ci.Enabled())
	}
	rng := NewRNG(5)
	counts := map[[2]int]int{}
	const draws = 2000
	for i := 0; i < draws; i++ {
		u, v := ci.Sample(rng)
		if u > v {
			u, v = v, u
		}
		if !(u == 0 && v == 1) && !(u == 2 && v == 3) {
			t.Fatalf("sampled pair (%d,%d) outside the enabled set", u, v)
		}
		counts[[2]int{u, v}]++
	}
	for pair, c := range counts {
		if c < draws/4 {
			t.Fatalf("pair %v drawn %d of %d times — not uniform", pair, c, draws)
		}
	}
	if ci.fallbacks == 0 {
		t.Fatal("saturated class never took the exact-walk fallback")
	}
}

// TestBatchIndexApplySwap exercises the swap kernel's index side
// directly: walker-protocol configurations where planned landings on
// the swap class are applied through applySwap (states exchanged in
// place, no Config.Apply), interleaved with ordinary rule
// applications, with a full brute-force verification after each.
func TestBatchIndexApplySwap(t *testing.T) {
	t.Parallel()
	p := batchProtocols(t)["walker"]
	if !p.Batchable() {
		t.Fatal("walker protocol must be batchable")
	}
	const n = 12
	rng := NewRNG(31)
	cfg := newStoreConfig(p, n, true)
	ci := NewClassIndex(cfg)
	swaps, generic := 0, 0
	for step := 0; step < 4000; step++ {
		if ci.enabled == 0 {
			break
		}
		u, v := ci.Sample(rng)
		a, b := cfg.Node(u), cfg.Node(v)
		if cfg.Edge(u, v) && ci.swapCell[ci.classID(a, b)] {
			// The kernel path: exchange states, patch the index.
			cfg.nodes[u], cfg.nodes[v] = b, a
			ci.applySwap(u, v, a, b)
			swaps++
		} else {
			effective, edgeChanged := cfg.Apply(u, v, rng)
			if effective {
				ci.Update(u, v, a, b, edgeChanged)
			}
			generic++
		}
		verifyClassIndex(t, ci, cfg)
	}
	if swaps == 0 || generic == 0 {
		t.Fatalf("run exercised %d swaps and %d generic steps; want both > 0", swaps, generic)
	}
}

// TestBatchIndexReset pins the workspace path: an index dirtied by one
// run and reset onto a fresh configuration must verify exactly like a
// newly built one — after a protocol change, onto a restricted
// topology, and back onto the complete graph.
func TestBatchIndexReset(t *testing.T) {
	t.Parallel()
	protos := batchProtocols(t)
	walker, toggle := protos["walker"], protos["toggle"]
	const n = 12
	rng := NewRNG(5)
	cfg := newStoreConfig(walker, n, true)
	ci := NewClassIndex(cfg)
	for step := 0; step < 500; step++ {
		u, v := rng.Pair(n)
		a, b := cfg.Node(u), cfg.Node(v)
		effective, edgeChanged := cfg.Apply(u, v, rng)
		if effective {
			ci.Update(u, v, a, b, edgeChanged)
		}
	}
	// Reset onto a fresh same-protocol configuration…
	cfg2 := newStoreConfig(walker, n, true)
	ci.reset(cfg2)
	verifyClassIndex(t, ci, cfg2)
	if ci.gen != 0 {
		t.Fatalf("fresh reset left gen = %d", ci.gen)
	}
	// …onto a different protocol with a different state count…
	cfg3 := newStoreConfig(toggle, n, true)
	ci.reset(cfg3)
	verifyClassIndex(t, ci, cfg3)
	// …onto a restricted topology, and back to the complete graph.
	topo, err := (&TopologySpec{Kind: TopoGnp, Param: 0.5}).Realize(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := newStoreConfig(toggle, n, false)
	cfg4.topo = topo
	ci.reset(cfg4)
	verifyClassIndex(t, ci, cfg4)
	cfg5 := newStoreConfig(toggle, n, false)
	ci.reset(cfg5)
	verifyClassIndex(t, ci, cfg5)
}

// TestSparseEngineRuns exercises core.Run with EngineSparse end to end
// on the index battery, cross-checking final stability against the
// brute-force scan.
func TestSparseEngineRuns(t *testing.T) {
	t.Parallel()
	for name, p := range indexProtocols(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(p, 16, Options{Seed: 9, Engine: EngineSparse})
			if err != nil {
				t.Fatal(err)
			}
			if res.Engine != EngineSparse {
				t.Fatalf("ran on %v, want sparse", res.Engine)
			}
			if !res.Converged {
				t.Fatalf("did not converge: %+v", res)
			}
			if !res.Final.Quiescent() {
				t.Fatalf("quiescence detector fired on a non-quiescent configuration")
			}
		})
	}
}

// TestSparseEngineValidation pins the option errors and the
// auto-selection boundaries of the sparse path.
func TestSparseEngineValidation(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["epidemic"]
	if _, err := Run(p, 8, Options{Engine: EngineSparse, Scheduler: &RoundRobinScheduler{}}); err == nil {
		t.Fatal("sparse engine accepted a non-uniform scheduler")
	}
	if _, err := Run(p, maxSparseNodes+1, Options{Engine: EngineSparse, MaxSteps: 1}); err == nil {
		t.Fatal("sparse engine accepted a population above its cap")
	}
	// Auto picks batch right above the fast-path boundary…
	res, err := Run(p, maxAutoIndexNodes+1, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineBatch {
		t.Fatalf("auto above maxAutoIndexNodes ran on %v, want batch", res.Engine)
	}
	if !res.Converged {
		t.Fatalf("epidemic did not converge: %+v", res)
	}
	// …but keeps exact-stepping runs on the sparse engine they are
	// bit-identical to: an attached observer forces it.
	res, err = Run(p, maxAutoIndexNodes+1, Options{Seed: 1, Observer: nopObserver{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineSparse {
		t.Fatalf("auto with an observer ran on %v, want sparse", res.Engine)
	}
}

type nopObserver struct{}

func (nopObserver) ObserveStep(int64, int, int, bool, *Config) {}

// TestParseEngineSparse covers the flag/spec name round-trip.
func TestParseEngineSparse(t *testing.T) {
	t.Parallel()
	e, err := ParseEngine("sparse")
	if err != nil || e != EngineSparse {
		t.Fatalf("ParseEngine(sparse) = %v, %v", e, err)
	}
	if EngineSparse.String() != "sparse" {
		t.Fatalf("EngineSparse.String() = %q", EngineSparse.String())
	}
}
