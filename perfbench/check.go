package main

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/trace"
)

// A target is the predicate a converged trial's final configuration
// must satisfy. It returns nil when the configuration is a correct
// output of the protocol.
type target func(cfg *core.Config) error

// graphTarget lifts a predicate on the active graph into a target.
func graphTarget(what string, pred func(g *graph.Graph) bool) target {
	return func(cfg *core.Config) error {
		if !pred(protocols.ActiveGraph(cfg)) {
			return fmt.Errorf("final active graph is not a %s", what)
		}
		return nil
	}
}

// stableTarget re-evaluates a detector predicate on the final
// configuration, for outputs that are node-state conditions rather
// than graph shapes.
func stableTarget(what string, stable func(*core.Config) bool) target {
	return func(cfg *core.Config) error {
		if !stable(cfg) {
			return fmt.Errorf("final configuration fails %s", what)
		}
		return nil
	}
}

// quiescentTarget accepts a configuration on which no permitted pair
// can still interact effectively — the stop rule of fault and
// restricted-topology runs, whose goal network may be unreachable.
var quiescentTarget target = func(cfg *core.Config) error {
	if !cfg.Quiescent() {
		return errors.New("final configuration is not quiescent")
	}
	return nil
}

// protocolTarget returns the target predicate of a registry protocol.
func protocolTarget(name string) (target, error) {
	switch name {
	case "simple-global-line", "fast-global-line", "faster-global-line":
		return graphTarget("spanning line", (*graph.Graph).IsSpanningLine), nil
	case "spanning-net":
		return graphTarget("spanning network", (*graph.Graph).IsSpanning), nil
	case "cycle-cover":
		return graphTarget("cycle cover with waste ≤ 2", func(g *graph.Graph) bool { return g.IsCycleCoverWithWaste(2) }), nil
	case "global-star":
		return graphTarget("spanning star", (*graph.Graph).IsSpanningStar), nil
	case "global-ring":
		return graphTarget("spanning ring", (*graph.Graph).IsSpanningRing), nil
	case "2rc", "3rc", "4rc":
		k := int(name[0] - '0')
		return graphTarget(fmt.Sprintf("connected near-%d-regular network", k), func(g *graph.Graph) bool { return g.IsNearKRegularConnected(k) }), nil
	case "3-cliques", "4-cliques":
		c := int(name[0] - '0')
		return graphTarget(fmt.Sprintf("partition into %d-cliques plus a leftover star", c), func(g *graph.Graph) bool { return isCliquesOutput(g, c) }), nil
	case "degree-doubling":
		// The registry builds d = 3: one centre joined to exactly 2³
		// nodes and no other edge.
		return graphTarget("star of 8 leaves plus isolated nodes", func(g *graph.Graph) bool {
			if g.M() != 8 {
				return false
			}
			for u := 0; u < g.N(); u++ {
				if g.Degree(u) == 8 {
					return true
				}
			}
			return false
		}), nil
	}
	return nil, fmt.Errorf("no target predicate for protocol %q", name)
}

// isCliquesOutput reports whether g is a stable output of c-Cliques:
// ⌊n/c⌋ disjoint c-cliques and, when c does not divide n, one leftover
// component of the n mod c remaining nodes: a single node, or a star
// around the leader that could not complete its clique.
func isCliquesOutput(g *graph.Graph, c int) bool {
	n := g.N()
	cliques, leftover := 0, false
	for _, comp := range g.Components() {
		sub, _ := g.InducedSubgraph(comp)
		switch {
		case len(comp) == c && sub.M() == c*(c-1)/2:
			cliques++
		case len(comp) == n%c && !leftover && (len(comp) == 1 || sub.IsSpanningStar()):
			leftover = true
		default:
			return false
		}
	}
	return cliques == n/c
}

// processTarget returns the target of a Table 1 process: its defining
// state condition, plus the graph shape for the two processes that
// build edges.
func processTarget(name string, stable func(*core.Config) bool) target {
	cond := stableTarget(name+" end condition", stable)
	var shape target
	switch name {
	case "Maximum-Matching":
		shape = graphTarget("maximum matching", (*graph.Graph).IsMaximumMatching)
	case "Edge-Cover":
		shape = graphTarget("complete graph", func(g *graph.Graph) bool { return g.M() == g.N()*(g.N()-1)/2 })
	}
	return func(cfg *core.Config) error {
		if err := cond(cfg); err != nil {
			return err
		}
		if shape != nil {
			return shape(cfg)
		}
		return nil
	}
}

// checkStepAccounting verifies the engines' step identity.
func checkStepAccounting(res core.Result) error {
	m := res.Metrics
	if m.Landings+m.SkippedSteps+m.CollapsedLandings != res.Steps {
		return fmt.Errorf("landings %d + skipped %d + collapsed %d != steps %d",
			m.Landings, m.SkippedSteps, m.CollapsedLandings, res.Steps)
	}
	return nil
}

// checkConsistent verifies that a configuration's aggregates agree
// with its contents: the active-edge counter with the edges the walk
// visits, every node's degree with its incident visited edges, and the
// state counts with the node states (summing to n).
func checkConsistent(cfg *core.Config) error {
	n := cfg.N()
	deg := make([]int32, n)
	edges := 0
	cfg.ForEachActiveEdge(func(u, v int) {
		deg[u]++
		deg[v]++
		edges++
	})
	if edges != cfg.ActiveEdges() {
		return fmt.Errorf("ActiveEdges %d but the edge walk visits %d", cfg.ActiveEdges(), edges)
	}
	for u, d := range deg {
		if int(d) != cfg.Degree(u) {
			return fmt.Errorf("node %d has degree %d but %d incident edges", u, cfg.Degree(u), d)
		}
	}
	counts := cfg.CountAll(nil)
	tally := make([]int, len(counts))
	for u := 0; u < n; u++ {
		s := int(cfg.Node(u))
		if s >= len(tally) {
			return fmt.Errorf("node %d in state %d outside the protocol's %d states", u, s, len(tally))
		}
		tally[s]++
	}
	sum := 0
	for s, c := range counts {
		if c != tally[s] {
			return fmt.Errorf("state %d counted %d but held by %d nodes", s, c, tally[s])
		}
		sum += c
	}
	if sum != n {
		return fmt.Errorf("state counts sum to %d, want %d", sum, n)
	}
	return nil
}

// checkTrial is the output checker for one completed trial: the step
// identity and configuration consistency always, and the target
// predicate when the trial converged and the point has one.
func checkTrial(pt *point, res core.Result) error {
	if err := checkStepAccounting(res); err != nil {
		return err
	}
	if res.Final == nil {
		return errors.New("result carries no final configuration")
	}
	if err := checkConsistent(res.Final); err != nil {
		return err
	}
	if res.Converged && pt.target != nil {
		return pt.target(res.Final)
	}
	return nil
}

// checkReplay verifies that an NDJSON event stream replays from the
// run's initial configuration to exactly its final one. It returns the
// number of records replayed.
func checkReplay(stream []byte, initial, final *core.Config) (int, error) {
	recs, err := trace.ReadRecords(bytes.NewReader(stream))
	if err != nil {
		return 0, err
	}
	got, err := trace.Replay(initial, recs)
	if err != nil {
		return len(recs), err
	}
	if got.Fingerprint() != final.Fingerprint() {
		return len(recs), errors.New("replayed configuration differs from the final configuration")
	}
	return len(recs), nil
}
