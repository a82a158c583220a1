package core

import "fmt"

// maxSparseNodes bounds the populations the census index accepts. The
// structure itself is O(n + m + |Q|²), so the cap is practical rather
// than representational: beyond ~2²⁰ nodes the geometric skip
// probabilities m/P fall below 2⁻³⁹ and step budgets stop being
// meaningful long before memory does.
const maxSparseNodes = 1 << 20

// ClassIndex is the census index behind the sparse and batch engines:
// instead of materializing the enabled pairs (Θ(n²) in the worst case,
// see PairIndex), it counts them by *state class*. A pair's
// enabledness depends only on the triple (state(u), state(v),
// edge(u,v)), so the enabled-pair count decomposes over unordered
// state classes {q₁, q₂}:
//
//	enabled = Σ_{q₁≤q₂} [ E(q₁,q₂,0)·(P(q₁,q₂) − A(q₁,q₂))
//	                    + E(q₁,q₂,1)·A(q₁,q₂) ]
//
// where E is the protocol's effectiveness table, P(q₁,q₂) is the
// number of pairs with those endpoint states (n_{q₁}·n_{q₂}, or
// C(n_q,2) on the diagonal — population counts Config already
// maintains), and A(q₁,q₂) is the number of active edges whose
// endpoints are in those states. The same decomposition with the
// edge-effectiveness table yields the edge-enabled count. Each
// (class, edge-bit) term is a sub-bucket whose weight the index
// caches.
//
// Costs: O(n + m + |Q|²) to build, O(deg(u) + deg(v) + |Q|) per
// effective step to maintain, O(|Q|²) + O(1) expected to sample a
// uniformly random enabled pair — a sub-bucket is drawn proportionally
// to its weight, then an active edge is an O(1) list draw and a
// non-edge is drawn by rejection from the per-state node lists.
// Nothing scales with n².
//
// The bookkeeping is organized around what the engines read:
//
//   - the protocol's four effectiveness bits per class are cached in
//     effMask, and touch[s] lists the classes containing state s whose
//     mask is nonzero. Classes no rule ever touches are never
//     reweighed, and keep no edge count;
//   - edge lists are kept only for the classes the sampler can draw an
//     edge from (effEdge), with a per-node mirror holding (class, slot)
//     of each listed edge for O(deg) removal. For protocols whose inert
//     bulk holds most edges the lists and mirrors stay tiny;
//   - reweighs are deferred and deduplicated per update (dirty list
//     with a stamp array), so each affected class is recomputed once
//     from final counts;
//   - a census generation counter (gen) bumps exactly when some cached
//     sub-bucket weight changes value. A transient that shuffles
//     weight through a class and back within one update does not bump
//     it, so the batch engine can keep a bucket plan alive across
//     landings that leave the landing law unchanged (see batch.go);
//   - swapCell marks the edge classes whose rule is a deterministic
//     state swap, for which the batch engine runs a specialized kernel
//     through applySwap and applySwapFast.
//
// Under a restricted topology (cfg.Topology() non-nil) the population
// products no longer count schedulable pairs, so P(q₁,q₂) is replaced
// by a census of the *permitted* pairs: each permitted pair is counted
// in its class (pairCnt) and, for classes whose non-edges the sampler
// draws, listed there (pairList/pairSlot), moved between classes in
// O(deg_topo) when an endpoint changes state. Non-edge sampling then
// draws from the class's permitted-pair list by rejection against the
// active edges (active ⊆ permitted — an invariant Run enforces on the
// initial configuration and interactions preserve). Every topology
// branch is behind a nil check.
//
// A ClassIndex is bound to the Config it was built from and must be
// notified after every effective interaction (Update) and every
// out-of-band write (NodeChanged, EdgeChanged); mutating the Config
// behind its back invalidates it. It is not safe for concurrent use.
type ClassIndex struct {
	cfg   *Config
	proto *Protocol
	q     int

	// sp is cfg.store when it is the sparse adjacency store — the hot
	// paths iterate its rows in place instead of copying neighbors out.
	sp *sparseStore

	// byState lists the nodes in each state; slot is each node's index
	// in its list, so state moves are O(1) swap-removes.
	byState [][]int32
	slot    []int32

	// Active edges by canonical class id (q₁·|Q|+q₂, q₁≤q₂): edgeCount
	// is A(q₁,q₂) for classes with a nonzero mask; edgeList holds the
	// listed classes' edges packed u<<32|v (u < v), mirrored at the
	// lower endpoint for O(deg) removal.
	edgeCount []int64
	edgeList  [][]uint64
	mirror    [][]mirrorEntry

	// Permitted pairs by class, kept only under a restricted topology:
	// pairCnt is P(q₁,q₂) restricted to permitted pairs; pairList holds
	// topology pair ids for the classes with effNonEdge, and pairSlot
	// each listed pair's position in its list. adjPair parallels the
	// topology's adjacency rows: adjPair[adjOff[u]+j] is the pair id of
	// {u, topo.adj[u][j]}. All of it is scratch reused across resets.
	topo     *Topology
	pairCnt  []int64
	pairList [][]int32
	pairSlot []int32
	adjPair  []int32
	adjOff   []int32

	// w and we cache each class's enabled / edge-enabled pair count per
	// edge bit (index 2·id + edgeBit); enabled and edgeEnabled are
	// their running totals.
	w, we       []int64
	enabled     int64
	edgeEnabled int64

	effMask  []uint8
	listed   []bool
	swapCell []bool
	swapOut  []bool
	touch    [][]int32

	gen uint64

	dirty      []int32
	dirtyStamp []uint64
	stamp      uint64

	nbuf []int // neighbor scratch for the dense store

	// plan is the batch engine's bucket-plan scratch and wpath its
	// cached walker segment (see walkChunk); they live here so their
	// backing arrays survive workspace reuse and steady-state campaign
	// trials stay allocation-free.
	plan  bucketPlan
	wpath walkPath

	// Sampling-effort telemetry, zeroed per reset (i.e. per run):
	// rejections counts candidate draws sampleNonEdge discarded for
	// hitting an active edge; fallbacks counts the exact counted walks
	// taken when active edges saturated a class.
	rejections int64
	fallbacks  int64
}

// mirrorEntry records one listed-class active edge incident to the
// node owning the slice: the other endpoint and the edge's position in
// its class list. Entries live at the lower-id endpoint only.
type mirrorEntry struct {
	other int32
	class int32
	slot  int32
}

// effMask bit layout: EffectiveOn(a, b, edge) and
// EdgeEffectiveOn(a, b, edge) for edge ∈ {0, 1}.
const (
	effNonEdge     = 1 << 0
	effEdge        = 1 << 1
	effEdgeNonEdge = 1 << 2
	effEdgeEdge    = 1 << 3
)

// NewClassIndex builds the index for the configuration's current state
// in O(n + m + |Q|²). The population must be at most maxSparseNodes.
func NewClassIndex(cfg *Config) *ClassIndex {
	ci := &ClassIndex{}
	ci.reset(cfg)
	return ci
}

// reset rebinds the index to cfg and rebuilds it in place, reusing
// every backing array that fits — the workspace path's allocation-free
// fresh build. NewClassIndex delegates here, so a reset index samples
// bit-identically to a fresh one by construction.
func (ci *ClassIndex) reset(cfg *Config) {
	n := cfg.n
	if n > maxSparseNodes {
		panic(fmt.Sprintf("core: ClassIndex supports populations up to %d, got %d", maxSparseNodes, n))
	}
	q := cfg.proto.Size()
	ci.cfg = cfg
	ci.sp, _ = cfg.store.(*sparseStore)
	if ci.q != q {
		ci.q = q
		ci.byState = make([][]int32, q)
		ci.edgeCount = make([]int64, q*q)
		ci.edgeList = make([][]uint64, q*q)
		ci.w = make([]int64, 2*q*q)
		ci.we = make([]int64, 2*q*q)
		ci.effMask = make([]uint8, q*q)
		ci.listed = make([]bool, q*q)
		ci.swapCell = make([]bool, q*q)
		ci.swapOut = make([]bool, q*q)
		ci.touch = make([][]int32, q)
		ci.dirtyStamp = make([]uint64, q*q)
		ci.proto = nil
	} else {
		for i := range ci.byState {
			ci.byState[i] = ci.byState[i][:0]
		}
		for i := range ci.edgeList {
			ci.edgeList[i] = ci.edgeList[i][:0]
		}
		clear(ci.edgeCount)
		clear(ci.w)
		clear(ci.we)
		clear(ci.dirtyStamp)
	}
	if ci.proto != cfg.proto {
		ci.proto = cfg.proto
		ci.rebuildMasks()
	}
	ci.slot = resize(ci.slot, n)
	if cap(ci.mirror) < n {
		ci.mirror = make([][]mirrorEntry, n)
	} else {
		ci.mirror = ci.mirror[:n]
		for i := range ci.mirror {
			ci.mirror[i] = ci.mirror[i][:0]
		}
	}
	ci.enabled, ci.edgeEnabled = 0, 0
	ci.rejections, ci.fallbacks = 0, 0
	ci.gen, ci.stamp = 0, 0
	ci.dirty = ci.dirty[:0]
	ci.wpath.valid = false

	for u, s := range cfg.nodes {
		ci.slot[u] = int32(len(ci.byState[s]))
		ci.byState[s] = append(ci.byState[s], int32(u))
	}
	ci.topo = cfg.topo
	if t := ci.topo; t != nil {
		if len(ci.pairCnt) != q*q {
			ci.pairCnt = make([]int64, q*q)
			ci.pairList = make([][]int32, q*q)
		} else {
			clear(ci.pairCnt)
			for i := range ci.pairList {
				ci.pairList[i] = ci.pairList[i][:0]
			}
		}
		ci.pairSlot = resize(ci.pairSlot, len(t.pairs))
		ci.adjPair = resize(ci.adjPair, 2*len(t.pairs))
		ci.adjOff = resize(ci.adjOff, n+1)
		// adjOff[u+1] starts as u's row offset and serves as its fill
		// cursor, ending at the next row's offset. Walking the sorted
		// pairs visits each node's lower neighbors, then its higher
		// ones, both ascending — exactly the adjacency rows' order.
		ci.adjOff[0] = 0
		off := int32(0)
		for u, row := range t.adj {
			ci.adjOff[u+1] = off
			off += int32(len(row))
		}
		for i, p := range t.pairs {
			u, v := int(p>>32), int(p&0xffffffff)
			ci.adjPair[ci.adjOff[u+1]] = int32(i)
			ci.adjOff[u+1]++
			ci.adjPair[ci.adjOff[v+1]] = int32(i)
			ci.adjOff[v+1]++
			ci.addPair(int32(i), ci.classID(cfg.nodes[u], cfg.nodes[v]))
		}
	}
	cfg.store.forEach(func(u, v int) {
		ci.addEdge(u, v, ci.classID(cfg.nodes[u], cfg.nodes[v]))
	})
	for a := 0; a < q; a++ {
		for b := a; b < q; b++ {
			ci.reweigh(a, b)
		}
	}
	// The build's reweighs bump gen; a fresh index starts a fresh
	// census history.
	ci.gen = 0
}

// resize returns s with length n, reusing its backing array when it
// fits; the contents are left for the caller to overwrite.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// rebuildMasks caches the protocol's effectiveness bits, the listed
// and swap-kernel class sets, and the per-state touch lists.
func (ci *ClassIndex) rebuildMasks() {
	p := ci.proto
	q := ci.q
	for a := 0; a < q; a++ {
		ci.touch[a] = ci.touch[a][:0]
	}
	for a := 0; a < q; a++ {
		for b := a; b < q; b++ {
			id := a*q + b
			var m uint8
			if p.EffectiveOn(State(a), State(b), false) {
				m |= effNonEdge
			}
			if p.EffectiveOn(State(a), State(b), true) {
				m |= effEdge
			}
			if p.EdgeEffectiveOn(State(a), State(b), false) {
				m |= effEdgeNonEdge
			}
			if p.EdgeEffectiveOn(State(a), State(b), true) {
				m |= effEdgeEdge
			}
			ci.effMask[id] = m
			ci.listed[id] = m&effEdge != 0
			e := p.lookup(State(a), State(b), true)
			ci.swapCell[id] = a != b && e.effective && !e.alt &&
				e.outA == State(b) && e.outB == State(a) && e.outEdge
			// A swap changes the output graph iff exactly one of the
			// two states is in Qout — collapse (which cannot track a
			// per-landing ConvergenceTime) is restricted to classes
			// where it does not.
			ci.swapOut[id] = p.IsOutput(State(a)) != p.IsOutput(State(b))
			if m != 0 {
				ci.touch[a] = append(ci.touch[a], int32(id))
				if b != a {
					ci.touch[b] = append(ci.touch[b], int32(id))
				}
			}
		}
	}
}

// Enabled returns the number of currently enabled pairs.
func (ci *ClassIndex) Enabled() int64 { return ci.enabled }

// EdgeEnabled returns the number of enabled pairs whose transition can
// change an edge.
func (ci *ClassIndex) EdgeEnabled() int64 { return ci.edgeEnabled }

// Quiescent reports full quiescence in O(1); it always agrees with the
// O(n²) Config.Quiescent scan.
func (ci *ClassIndex) Quiescent() bool { return ci.enabled == 0 }

// EdgeQuiescent reports edge quiescence in O(1); it always agrees with
// the O(n²) Config.EdgeQuiescent scan.
func (ci *ClassIndex) EdgeQuiescent() bool { return ci.edgeEnabled == 0 }

// classID maps an unordered state pair to its canonical class id.
func (ci *ClassIndex) classID(a, b State) int {
	if a > b {
		a, b = b, a
	}
	return int(a)*ci.q + int(b)
}

// addEdge and dropEdge keep the per-class edge counts for the classes
// some rule reads (effMask ≠ 0 — the only counts reweigh and
// sampleNonEdge consume) and the edge list (plus its mirror entry) for
// listed classes only. Classes outside both sets — the inert bulk —
// cost nothing to move edges through.

func (ci *ClassIndex) addEdge(u, v, id int) {
	if ci.effMask[id] == 0 {
		return
	}
	ci.edgeCount[id]++
	if !ci.listed[id] {
		return
	}
	if u > v {
		u, v = v, u
	}
	ci.mirror[u] = append(ci.mirror[u], mirrorEntry{
		other: int32(v), class: int32(id), slot: int32(len(ci.edgeList[id]))})
	ci.edgeList[id] = append(ci.edgeList[id], uint64(u)<<32|uint64(v))
}

func (ci *ClassIndex) dropEdge(u, v, id int) {
	if ci.effMask[id] == 0 {
		return
	}
	ci.edgeCount[id]--
	if !ci.listed[id] {
		return
	}
	if u > v {
		u, v = v, u
	}
	m := ci.mirror[u]
	mi := 0
	for m[mi].other != int32(v) {
		mi++
	}
	slot := m[mi].slot
	list := ci.edgeList[id]
	lastIdx := len(list) - 1
	if int(slot) != lastIdx {
		last := list[lastIdx]
		list[slot] = last
		// Fix the displaced edge's mirror entry.
		lu := int(last >> 32)
		lv := int32(last & 0xffffffff)
		mm := ci.mirror[lu]
		for j := range mm {
			if mm[j].other == lv {
				mm[j].slot = slot
				break
			}
		}
	}
	ci.edgeList[id] = list[:lastIdx]
	m[mi] = m[len(m)-1]
	ci.mirror[u] = m[:len(m)-1]
}

func (ci *ClassIndex) moveEdge(u, v, fromID, toID int) {
	if fromID == toID {
		return
	}
	ci.dropEdge(u, v, fromID)
	ci.addEdge(u, v, toID)
	ci.markDirty(fromID)
	ci.markDirty(toID)
}

// addPair, dropPair and movePair maintain the permitted-pair census
// under a restricted topology, with the same gating as the edge
// operations: counts for classes some rule reads, lists (swap-remove,
// append) for classes whose non-edges the sampler draws.

func (ci *ClassIndex) addPair(pid int32, id int) {
	m := ci.effMask[id]
	if m == 0 {
		return
	}
	ci.pairCnt[id]++
	if m&effNonEdge == 0 {
		return
	}
	ci.pairSlot[pid] = int32(len(ci.pairList[id]))
	ci.pairList[id] = append(ci.pairList[id], pid)
}

func (ci *ClassIndex) dropPair(pid int32, id int) {
	m := ci.effMask[id]
	if m == 0 {
		return
	}
	ci.pairCnt[id]--
	if m&effNonEdge == 0 {
		return
	}
	list := ci.pairList[id]
	slot := ci.pairSlot[pid]
	last := list[len(list)-1]
	list[slot] = last
	ci.pairSlot[last] = slot
	ci.pairList[id] = list[:len(list)-1]
}

func (ci *ClassIndex) movePair(pid int32, fromID, toID int) {
	if fromID == toID {
		return
	}
	ci.dropPair(pid, fromID)
	ci.addPair(pid, toID)
	ci.markDirty(fromID)
	ci.markDirty(toID)
}

// movePairsOf re-classes the permitted pairs incident to node u after
// its state changed from `from` to `to`, in topology adjacency order.
// The pair {u, skip} (the interaction partner, whose own state may
// also have changed) is left to the caller; its pair id is returned,
// or −1 when skip is not a permitted partner. O(deg_topo(u)).
func (ci *ClassIndex) movePairsOf(u int, from, to State, skip int) int32 {
	nodes := ci.cfg.nodes
	ids := ci.adjPair[ci.adjOff[u]:ci.adjOff[u+1]]
	skipped := int32(-1)
	for j, x := range ci.topo.adj[u] {
		pid := ids[j]
		if int(x) == skip {
			skipped = pid
			continue
		}
		sx := nodes[x]
		ci.movePair(pid, ci.classID(from, sx), ci.classID(to, sx))
	}
	return skipped
}

func (ci *ClassIndex) moveNode(u int, from, to State) {
	list := ci.byState[from]
	s := ci.slot[u]
	last := list[len(list)-1]
	list[s] = last
	ci.slot[last] = s
	ci.byState[from] = list[:len(list)-1]
	ci.slot[u] = int32(len(ci.byState[to]))
	ci.byState[to] = append(ci.byState[to], int32(u))
}

// reweigh recomputes one class's cached weights from the current
// counts and edge buckets, folding deltas into the totals and bumping
// gen iff some cached value actually changed. Idempotent.
func (ci *ClassIndex) reweigh(a, b int) {
	id := a*ci.q + b
	mask := ci.effMask[id]
	var pairs int64
	switch {
	case ci.topo != nil:
		// Restricted topology: the population product over-counts pairs
		// the scheduler can never draw, so the permitted-pair census is
		// the class's pair count instead.
		pairs = ci.pairCnt[id]
	case a == b:
		k := int64(ci.cfg.counts[a])
		pairs = k * (k - 1) / 2
	default:
		pairs = int64(ci.cfg.counts[a]) * int64(ci.cfg.counts[b])
	}
	act := ci.edgeCount[id]
	non := pairs - act
	var w0, w1, we0, we1 int64
	if mask&effNonEdge != 0 {
		w0 = non
	}
	if mask&effEdge != 0 {
		w1 = act
	}
	if mask&effEdgeNonEdge != 0 {
		we0 = non
	}
	if mask&effEdgeEdge != 0 {
		we1 = act
	}
	if w0 != ci.w[2*id] || w1 != ci.w[2*id+1] || we0 != ci.we[2*id] || we1 != ci.we[2*id+1] {
		ci.gen++
		ci.enabled += w0 + w1 - ci.w[2*id] - ci.w[2*id+1]
		ci.w[2*id], ci.w[2*id+1] = w0, w1
		ci.edgeEnabled += we0 + we1 - ci.we[2*id] - ci.we[2*id+1]
		ci.we[2*id], ci.we[2*id+1] = we0, we1
	}
}

// markDirty queues a class for the end-of-update reweigh, skipping
// classes no rule can enable (their weights are identically zero).
func (ci *ClassIndex) markDirty(id int) {
	if ci.effMask[id] == 0 {
		return
	}
	if ci.dirtyStamp[id] == ci.stamp {
		return
	}
	ci.dirtyStamp[id] = ci.stamp
	ci.dirty = append(ci.dirty, int32(id))
}

// markState queues every class containing s that some rule touches.
func (ci *ClassIndex) markState(s State) {
	for _, id := range ci.touch[s] {
		ci.markDirty(int(id))
	}
}

func (ci *ClassIndex) flushDirty() {
	for _, id := range ci.dirty {
		ci.reweigh(int(id)/ci.q, int(id)%ci.q)
	}
	ci.dirty = ci.dirty[:0]
}

// Update refreshes the index after an interaction was applied to the
// pair {u, v}. beforeU and beforeV are the node states before the
// interaction and edgeChanged reports whether the edge flipped —
// exactly what Config.Apply exposes. Only the classes whose weights
// can have moved are reweighed, once, from final counts. Cost:
// O(deg(u) + deg(v) + |Q|) when a node state changed (plus the
// topology degrees under a restricted topology), O(1) for edge-only
// transitions.
func (ci *ClassIndex) Update(u, v int, beforeU, beforeV State, edgeChanged bool) {
	cfg := ci.cfg
	afterU, afterV := cfg.nodes[u], cfg.nodes[v]
	edgeNow := cfg.store.get(u, v)
	edgeBefore := edgeNow
	if edgeChanged {
		edgeBefore = !edgeNow
	}
	ci.stamp++

	// Re-class the active edges incident to a node whose state changed;
	// the {u, v} edge is handled separately below because both its
	// endpoints (and the edge itself) may have changed.
	if afterU != beforeU {
		ci.moveNode(u, beforeU, afterU)
		ci.reclassifyIncident(u, v, beforeU, afterU)
	}
	if afterV != beforeV {
		ci.moveNode(v, beforeV, afterV)
		ci.reclassifyIncident(v, u, beforeV, afterV)
	}
	if ci.topo != nil {
		// Same for the permitted pairs, with the scheduled pair {u, v}
		// re-classed once with both endpoints' before/after states.
		uv := int32(-1)
		if afterU != beforeU {
			uv = ci.movePairsOf(u, beforeU, afterU, v)
		}
		if afterV != beforeV {
			uv = ci.movePairsOf(v, beforeV, afterV, u)
		}
		if uv >= 0 {
			ci.movePair(uv, ci.classID(beforeU, beforeV), ci.classID(afterU, afterV))
		}
	}
	switch {
	case edgeBefore && edgeNow:
		ci.moveEdge(u, v, ci.classID(beforeU, beforeV), ci.classID(afterU, afterV))
	case edgeBefore && !edgeNow:
		id := ci.classID(beforeU, beforeV)
		ci.dropEdge(u, v, id)
		ci.markDirty(id)
	case !edgeBefore && edgeNow:
		id := ci.classID(afterU, afterV)
		ci.addEdge(u, v, id)
		ci.markDirty(id)
	}

	switch {
	case afterU == beforeU && afterV == beforeV:
		// Edge-only transition: only the pair's own class can move.
		ci.markDirty(ci.classID(afterU, afterV))
	case afterU == beforeV && afterV == beforeU:
		// Pure swap: population counts unchanged; the edge and pair
		// moves above already marked every class whose census changed.
	default:
		ci.markState(beforeU)
		if afterU != beforeU {
			ci.markState(afterU)
		}
		ci.markState(beforeV)
		if afterV != beforeV {
			ci.markState(afterV)
		}
	}
	ci.flushDirty()
}

// NodeChanged refreshes the index after an out-of-band write to node
// u's state (scenario faults applied through a Mutator) — the
// single-node case of Update, O(deg(u) + |Q|). before is the state u
// held when the index was last consistent.
func (ci *ClassIndex) NodeChanged(u int, before State) {
	after := ci.cfg.nodes[u]
	if after == before {
		return
	}
	ci.stamp++
	ci.moveNode(u, before, after)
	ci.reclassifyIncident(u, -1, before, after)
	if ci.topo != nil {
		ci.movePairsOf(u, before, after, -1)
	}
	ci.markState(before)
	ci.markState(after)
	ci.flushDirty()
}

// EdgeChanged refreshes the index after an out-of-band toggle of edge
// {u, v}: the edge joins or leaves its class and that single class is
// reweighed — O(1) plus the mirror scan.
func (ci *ClassIndex) EdgeChanged(u, v int) {
	ci.stamp++
	id := ci.classID(ci.cfg.nodes[u], ci.cfg.nodes[v])
	if ci.cfg.store.get(u, v) {
		ci.addEdge(u, v, id)
	} else {
		ci.dropEdge(u, v, id)
	}
	ci.markDirty(id)
	ci.flushDirty()
}

// applySwap is the index side of batchLoop's swap kernel: the caller
// has already swapped nodes[u] and nodes[v] (their pre-swap states
// beforeU ≠ beforeV), nothing else changed. u and v exchange their
// byState slots in place, incident edges reclassify, and only the
// classes whose edge counts moved are reweighed.
func (ci *ClassIndex) applySwap(u, v int, beforeU, beforeV State) {
	ci.byState[beforeU][ci.slot[u]] = int32(v)
	ci.byState[beforeV][ci.slot[v]] = int32(u)
	ci.slot[u], ci.slot[v] = ci.slot[v], ci.slot[u]
	ci.stamp++

	ci.reclassifyIncident(u, v, beforeU, beforeV)
	ci.reclassifyIncident(v, u, beforeV, beforeU)
	// The {u, v} edge's own class is the unordered pair {beforeU,
	// beforeV}, unchanged by the swap.
	ci.flushDirty()
}

// applySwapFast applies the census-invariant interior-swap surgery:
// when both swapped endpoints have exactly two active edges and their
// outer neighbors share one state s, the swap provably moves no class
// weight — class {beforeU, s} loses edge {u, x} and gains {v, y},
// class {beforeV, s} the reverse, and every population count is
// untouched — so instead of the generic reclassify/reweigh machinery
// the two listed-edge keys are rewritten in place: no adjacency walk,
// no dirty pass, no reweigh, and gen unchanged by construction. It
// returns false (touching nothing) when the pattern does not apply;
// the caller falls back to applySwap. Like applySwap it expects
// cfg.nodes[u] and cfg.nodes[v] already exchanged by the caller.
func (ci *ClassIndex) applySwapFast(u, v int, beforeU, beforeV State) bool {
	sp := ci.sp
	if sp == nil {
		return false
	}
	au, av := sp.adj[u], sp.adj[v]
	if len(au) != 2 || len(av) != 2 {
		return false
	}
	x := int(au[0])
	if x == v {
		x = int(au[1])
	}
	y := int(av[0])
	if y == u {
		y = int(av[1])
	}
	nodes := ci.cfg.nodes
	s := nodes[x]
	if s != nodes[y] {
		return false
	}
	ci.byState[beforeU][ci.slot[u]] = int32(v)
	ci.byState[beforeV][ci.slot[v]] = int32(u)
	ci.slot[u], ci.slot[v] = ci.slot[v], ci.slot[u]
	// Unlist both old keys before listing the new ones: edge {v, y}
	// would transiently be mirrored in two classes otherwise, and the
	// mirror scan matches on the endpoint pair alone.
	idA := ci.classID(beforeU, s)
	idB := ci.classID(beforeV, s)
	slotA, haveA := ci.unlistEdge(u, x, idA)
	slotB, haveB := ci.unlistEdge(v, y, idB)
	if haveA {
		ci.listEdgeAt(v, y, idA, slotA)
	}
	if haveB {
		ci.listEdgeAt(u, x, idB, slotB)
	}
	return true
}

// unlistEdge removes the mirror entry of edge {a, b} (class id) and
// returns the edge's slot in the class list; the list entry itself is
// left in place for listEdgeAt to overwrite. Unlisted classes keep no
// entries and report false — their counts are unchanged by a
// same-class key replacement, so there is nothing to do.
func (ci *ClassIndex) unlistEdge(a, b, id int) (int32, bool) {
	if !ci.listed[id] {
		return 0, false
	}
	if a > b {
		a, b = b, a
	}
	m := ci.mirror[a]
	mi := 0
	for m[mi].other != int32(b) {
		mi++
	}
	slot := m[mi].slot
	m[mi] = m[len(m)-1]
	ci.mirror[a] = m[:len(m)-1]
	return slot, true
}

// listEdgeAt writes edge {a, b} into class id's list at slot and
// mirrors it at the lower endpoint.
func (ci *ClassIndex) listEdgeAt(a, b, id int, slot int32) {
	if a > b {
		a, b = b, a
	}
	ci.edgeList[id][slot] = uint64(a)<<32 | uint64(b)
	ci.mirror[a] = append(ci.mirror[a], mirrorEntry{other: int32(b), class: int32(id), slot: slot})
}

// reclassifyIncident moves every active edge incident to u except
// {u, v} from class {before, sx} to class {after, sx} — the
// state-change fixup shared by Update, NodeChanged (v = −1) and
// applySwap. On the sparse store it walks the adjacency row in place.
func (ci *ClassIndex) reclassifyIncident(u, v int, before, after State) {
	cfg := ci.cfg
	if ci.sp != nil {
		// Hot path: hoisted classID arithmetic and a fused mask check
		// so moves through the inert bulk (neither class read by any
		// rule) cost one masked load per neighbor.
		nodes := cfg.nodes
		effMask := ci.effMask
		q := ci.q
		rb, ra := int(before)*q, int(after)*q
		for _, x32 := range ci.sp.adj[u] {
			x := int(x32)
			if x == v {
				continue
			}
			sx := int(nodes[x])
			var from, to int
			if sx >= int(before) {
				from = rb + sx
			} else {
				from = sx*q + int(before)
			}
			if sx >= int(after) {
				to = ra + sx
			} else {
				to = sx*q + int(after)
			}
			if effMask[from]|effMask[to] == 0 {
				continue
			}
			ci.dropEdge(u, x, from)
			ci.addEdge(u, x, to)
			ci.markDirty(from)
			ci.markDirty(to)
		}
		return
	}
	ci.nbuf = cfg.store.neighbors(u, ci.nbuf[:0])
	for _, x := range ci.nbuf {
		if x == v {
			continue
		}
		sx := cfg.nodes[x]
		ci.moveEdge(u, x, ci.classID(before, sx), ci.classID(after, sx))
	}
}

// Sample returns a uniformly random enabled pair in random orientation
// (matching the orientation law of RNG.Pair, exactly as
// PairIndex.Sample): a sub-bucket proportionally to its weight, then a
// member of it. It must not be called when Enabled() is zero.
func (ci *ClassIndex) Sample(rng *RNG) (u, v int) {
	r := rng.Int64N(ci.enabled)
	for a := 0; a < ci.q; a++ {
		for b := a; b < ci.q; b++ {
			id := a*ci.q + b
			if w := ci.w[2*id]; r < w {
				return ci.sampleNonEdge(a, b, rng)
			} else {
				r -= w
			}
			if w := ci.w[2*id+1]; r < w {
				key := ci.edgeList[id][rng.IntN(len(ci.edgeList[id]))]
				return orient(int(key>>32), int(key&0xffffffff), rng)
			} else {
				r -= w
			}
		}
	}
	panic("core: ClassIndex class weights inconsistent with total")
}

// sampleNonEdge draws a uniformly random non-edge pair within the
// class {a, b}: rejection from the per-state node lists (expected O(1)
// while non-edges dominate the class), falling back to an exact
// counted walk when active edges saturate it — in which case the walk
// is O(P(a,b)) = O(A/(1−acceptance)) and A is bounded by the total
// edge count, so the amortized cost stays O(m)-bounded.
func (ci *ClassIndex) sampleNonEdge(a, b int, rng *RNG) (int, int) {
	if ci.topo != nil {
		return ci.sampleNonEdgeTopo(a*ci.q+b, rng)
	}
	la, lb := ci.byState[a], ci.byState[b]
	diag := a == b
	store := ci.cfg.store
	const tries = 64
	for t := 0; t < tries; t++ {
		var u, v int
		if diag {
			i := rng.IntN(len(la))
			j := rng.IntN(len(la) - 1)
			if j >= i {
				j++
			}
			u, v = int(la[i]), int(la[j])
		} else {
			u = int(la[rng.IntN(len(la))])
			v = int(lb[rng.IntN(len(lb))])
		}
		if !store.get(u, v) {
			return orient(u, v, rng)
		}
		ci.rejections++
	}
	// Exact fallback: pick the t-th non-edge of the class, whose
	// non-edge count is its cached weight w0 (the class was drawn by it).
	ci.fallbacks++
	t := rng.Int64N(ci.w[2*(a*ci.q+b)])
	for i := 0; i < len(la); i++ {
		j0, lbj := 0, lb
		if diag {
			j0, lbj = i+1, la
		}
		for j := j0; j < len(lbj); j++ {
			u, v := int(la[i]), int(lbj[j])
			if store.get(u, v) {
				continue
			}
			if t == 0 {
				return orient(u, v, rng)
			}
			t--
		}
	}
	panic("core: class non-edge count inconsistent with class weights")
}

// sampleNonEdgeTopo draws a uniformly random permitted non-edge pair
// within class id under a restricted topology: rejection from the
// class's permitted-pair list (expected O(1) while non-edges
// dominate), falling back to an exact counted walk over the list when
// active edges saturate it, with sampleNonEdge's cost argument.
// Active ⊆ permitted guarantees the rejection test is exact: every
// active edge of the class sits in this list.
func (ci *ClassIndex) sampleNonEdgeTopo(id int, rng *RNG) (int, int) {
	list := ci.pairList[id]
	pairs := ci.topo.pairs
	store := ci.cfg.store
	const tries = 64
	for t := 0; t < tries; t++ {
		key := pairs[list[rng.IntN(len(list))]]
		u, v := int(key>>32), int(key&0xffffffff)
		if !store.get(u, v) {
			return orient(u, v, rng)
		}
		ci.rejections++
	}
	ci.fallbacks++
	t := rng.Int64N(ci.w[2*id])
	for _, pid := range list {
		key := pairs[pid]
		u, v := int(key>>32), int(key&0xffffffff)
		if store.get(u, v) {
			continue
		}
		if t == 0 {
			return orient(u, v, rng)
		}
		t--
	}
	panic("core: permitted non-edge count inconsistent with class weights")
}

// orient returns the pair in uniformly random orientation.
func orient(u, v int, rng *RNG) (int, int) {
	if rng.Coin() {
		return v, u
	}
	return u, v
}

// pairSampler adapter (see fast.go).

func (ci *ClassIndex) enabledPairs() int64     { return ci.enabled }
func (ci *ClassIndex) edgeEnabledPairs() int64 { return ci.edgeEnabled }

func (ci *ClassIndex) samplePair(rng *RNG) (int, int) { return ci.Sample(rng) }

func (ci *ClassIndex) applied(u, v int, beforeU, beforeV State, edgeChanged bool) {
	ci.Update(u, v, beforeU, beforeV, edgeChanged)
}

func (ci *ClassIndex) nodeChanged(u int, before State) { ci.NodeChanged(u, before) }
func (ci *ClassIndex) edgeChanged(u, v int)            { ci.EdgeChanged(u, v) }

func (ci *ClassIndex) sampleStats() (int64, int64) { return ci.rejections, ci.fallbacks }
