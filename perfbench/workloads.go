package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/processes"
	"repro/internal/protocols"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// workload is one named set of inputs. setup builds everything a round
// needs — points, specs, protocols, initial configurations — and is
// what setup_s times.
type workload struct {
	name  string
	why   string
	setup func() (*plan, error)
}

// workloads lists the benchmark's workloads; README.md explains each.
var workloads = []workload{
	{"paper-tables", "thousands of short converging trials on auto->fast: campaign scheduling, workspace reset, PairIndex", setupPaperTables},
	{"small-n-budget", "fixed-budget trials at n=32 and 256, where landings and detectors cost most", setupSmallNBudget},
	{"large-n", "single runs at n=65536 and 2^20 on the batch engine's bucket and exact-fallback paths", setupLargeN},
	{"scenario-trace", "faulted runs on gnp topologies with an NDJSON sink: Mutator writes, permitted-pair census, events", setupScenarioTrace},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// plan is a set-up workload. Campaign workloads run groups of cps per
// round, each point for its Trials; sequential workloads run scen.
type plan struct {
	points []*point

	cps    []campaign.Point
	groups [][]int
	mode   checkMode

	scen []*scenarioPoint
}

// Sizes of the workloads, chosen so one round is short against the
// run time and every trial lands (see README.md).
const (
	paperTablesTrials = 40 // trials per point per round

	smallNTrials32  = 8
	smallNTrials256 = 10
	smallNBudget32  = 40_000
	smallNBudget256 = 200_000

	largeN3RCBudget  = 1 << 33
	largeNStarBudget = 1 << 25

	scenarioBudget = 1 << 34
)

// fourRCSizes are the extra 4RC sizes, n ∈ {8..16}.
var fourRCSizes = []int{8, 10, 12, 14, 16}

// table2Rows are the registry keys of the cmd/tables Table 2 rows.
var table2Rows = []string{"simple-global-line", "fast-global-line", "cycle-cover", "global-star", "global-ring", "2rc", "3rc", "3-cliques"}

// compileSpec round-trips a spec through its JSON form, as a user's
// spec file would arrive, and compiles it.
func compileSpec(s campaign.Spec) ([]campaign.Point, error) {
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	parsed, err := campaign.ParseSpec(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return parsed.Compile()
}

// pointFor describes a compiled campaign point for the checker, the
// guard and the index replay.
func pointFor(cp campaign.Point, expectConverge bool, tgt target) *point {
	pt := &point{
		label:          fmt.Sprintf("%s n=%d", cp.Protocol, cp.N),
		protocol:       cp.Protocol,
		n:              cp.N,
		expectConverge: expectConverge,
		target:         tgt,
		proto:          cp.Proto,
		detector:       cp.Detector,
	}
	if cp.Topology != nil {
		pt.label += " " + cp.Topology.Label()
	}
	if cp.Initial != nil {
		init := cp.Initial
		pt.initial = func() (*core.Config, error) { return init(0) }
	}
	return pt
}

// setupPaperTables builds the full cmd/tables sweep (not -quick) plus
// spanning-net, 4RC at n ∈ {8..16} and degree-doubling.
func setupPaperTables() (*plan, error) {
	spec := campaign.Spec{Trials: paperTablesTrials}
	for _, proc := range processes.All() {
		spec.Items = append(spec.Items, campaign.Item{Name: proc.Proto.Name(), Kind: "process", Sizes: experiments.Table1Sizes()})
	}
	for _, key := range table2Rows {
		spec.Items = append(spec.Items, campaign.Item{Name: key, Sizes: experiments.Table2Sizes(key)})
	}
	spec.Items = append(spec.Items,
		campaign.Item{Kind: "replication", Sizes: experiments.Table2Sizes("graph-replication")},
		campaign.Item{Name: "fast-global-line", Sizes: []int{8, 16, 24, 32, 48, 64}},
		campaign.Item{Name: "faster-global-line", Sizes: []int{8, 16, 24, 32, 48, 64}},
		campaign.Item{Name: "spanning-net", Sizes: experiments.Table2Sizes("spanning-net")},
		campaign.Item{Name: "4rc", Sizes: fourRCSizes},
	)
	cps, err := compileSpec(spec)
	if err != nil {
		return nil, err
	}
	p := &plan{mode: checkInline}
	for _, cp := range cps {
		var tgt target
		switch {
		case cp.Protocol == protocols.GraphReplication().Proto.Name():
			tgt = stableTarget("replication of the input ring", cp.Detector.Stable)
		case cp.Expected != 0 || cp.MetricName == "steps":
			tgt = processTarget(cp.Protocol, cp.Detector.Stable)
		default:
			if tgt, err = protocolTarget(cp.Protocol); err != nil {
				return nil, err
			}
		}
		p.add(cp, pointFor(cp, true, tgt))
	}

	// Degree-doubling from its non-uniform start: the registry's
	// all-q0 default leaves no enabled pair.
	dd, err := protocols.Lookup("degree-doubling")
	if err != nil {
		return nil, err
	}
	ddTarget, err := protocolTarget("degree-doubling")
	if err != nil {
		return nil, err
	}
	for _, n := range experiments.Table2Sizes("degree-doubling") {
		initial, err := protocols.DegreeDoublingInitial(dd.Proto, n)
		if err != nil {
			return nil, err
		}
		cp := campaign.Point{Protocol: "degree-doubling", N: n, Trials: paperTablesTrials, Proto: dd.Proto, Detector: dd.Detector,
			Initial: func(int) (*core.Config, error) { return initial, nil }}
		p.add(cp, pointFor(cp, true, ddTarget))
	}

	// The sparsity rows of cmd/tables at n = 24: G(n, p) at expected
	// degrees 2, 4 and 8, and the complete-graph control, with the
	// sweep's 32·n⁴ budget. Budget exhaustion is data there.
	const n = 24
	for _, key := range []string{"simple-global-line", "cycle-cover"} {
		c, err := protocols.Lookup(key)
		if err != nil {
			return nil, err
		}
		for _, deg := range []float64{2, 4, 8, n - 1} {
			cp := campaign.Point{Protocol: key, N: n, Trials: paperTablesTrials, Proto: c.Proto, Detector: core.QuiescenceDetector(),
				MaxSteps: 32 * n * n * n * n, IncludeUnconverged: true}
			tgt := quiescentTarget
			if deg < n-1 {
				if cp.Topology, err = core.ParseTopologySpec(fmt.Sprintf("gnp@%.4f", deg/(n-1))); err != nil {
					return nil, err
				}
			} else if tgt, err = protocolTarget(key); err != nil {
				return nil, err
			}
			p.add(cp, pointFor(cp, false, tgt))
		}
	}
	p.groups = [][]int{allIndexes(len(p.cps))}
	return p, nil
}

func (p *plan) add(cp campaign.Point, pt *point) {
	p.cps = append(p.cps, cp)
	p.points = append(p.points, pt)
}

func allIndexes(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// smallNProtocols are the protocols of the small-n-budget workload.
var smallNProtocols = []string{"2rc", "3rc", "4rc", "global-ring", "3-cliques", "4-cliques"}

// setupSmallNBudget builds the fixed-budget sweep at n ∈ {32, 256}.
func setupSmallNBudget() (*plan, error) {
	p := &plan{mode: checkInline}
	for _, sz := range []struct {
		n      int
		trials int
		budget int64
	}{{32, smallNTrials32, smallNBudget32}, {256, smallNTrials256, smallNBudget256}} {
		spec := campaign.Spec{Trials: sz.trials, MaxSteps: sz.budget, IncludeUnconverged: true}
		for _, key := range smallNProtocols {
			spec.Items = append(spec.Items, campaign.Item{Name: key, Sizes: []int{sz.n}})
		}
		cps, err := compileSpec(spec)
		if err != nil {
			return nil, err
		}
		for _, cp := range cps {
			tgt, err := protocolTarget(cp.Protocol)
			if err != nil {
				return nil, err
			}
			p.add(cp, pointFor(cp, false, tgt))
		}
	}
	p.groups = [][]int{allIndexes(len(p.cps))}
	return p, nil
}

// setupLargeN builds the netsim-style single runs: one campaign of one
// trial per point, in sequence.
func setupLargeN() (*plan, error) {
	p := &plan{mode: checkDeferred}
	for _, r := range []struct {
		key      string
		n        int
		budget   int64
		converge bool
	}{
		{"simple-global-line", 1 << 16, 0, false},
		{"simple-global-line", 1 << 20, 0, false},
		{"3rc", 1 << 16, largeN3RCBudget, false},
		{"global-star", 1 << 16, largeNStarBudget, false},
		{"cycle-cover", 1 << 16, 0, true},
	} {
		spec := campaign.Spec{Trials: 1, MaxSteps: r.budget, Items: []campaign.Item{{Name: r.key, Sizes: []int{r.n}}}}
		cps, err := compileSpec(spec)
		if err != nil {
			return nil, err
		}
		tgt, err := protocolTarget(r.key)
		if err != nil {
			return nil, err
		}
		p.add(cps[0], pointFor(cps[0], r.converge, tgt))
		p.groups = append(p.groups, []int{len(p.cps) - 1})
	}
	return p, nil
}

// scenarioPoint is one faulted, traced, topology-restricted run.
type scenarioPoint struct {
	pt       *point
	topo     *core.TopologySpec
	prepared *scenario.Prepared
	trials   int // per round
}

// setupScenarioTrace builds the scenario-trace points. The trial
// counts put the median trial inside global-star's distribution rather
// than on its boundary with the faster cycle-cover trials.
func setupScenarioTrace() (*plan, error) {
	p := &plan{}
	for _, r := range []struct {
		key    string
		n      int
		topo   string
		faults string
		trials int
	}{
		{"cycle-cover", 1024, "gnp@0.01", "crash@1e-5x2,edge@2e-5x4,reset@1e-5x2", 12},
		{"global-star", 1024, "gnp@0.01", "crash@1e-5x2,edge@2e-5x4,reset@1e-5x2", 36},
		{"cycle-cover", 8192, "gnp@0.002", "crash@1e-6x2,edge@2e-6x4,reset@1e-6x2", 1},
	} {
		c, err := protocols.Lookup(r.key)
		if err != nil {
			return nil, err
		}
		topo, err := core.ParseTopologySpec(r.topo)
		if err != nil {
			return nil, err
		}
		faults, err := scenario.ParsePlan(r.faults)
		if err != nil {
			return nil, err
		}
		prepared, err := faults.Prepare(c.Proto)
		if err != nil {
			return nil, err
		}
		pt := &point{
			label:    fmt.Sprintf("%s n=%d %s %s", r.key, r.n, r.topo, r.faults),
			protocol: r.key,
			n:        r.n,
			target:   quiescentTarget,
			proto:    prepared.Proto,
			detector: core.QuiescenceDetector(),
		}
		p.points = append(p.points, pt)
		p.scen = append(p.scen, &scenarioPoint{pt: pt, topo: topo, prepared: prepared, trials: r.trials})
	}
	return p, nil
}

// round executes one round of the plan and returns its timed host
// time, which excludes the output checks wherever they can run outside
// the trials.
func (p *plan) round(r *runner, round int, parent int32) (time.Duration, error) {
	if p.scen != nil {
		return p.scenarioRound(r, round, parent)
	}
	var total time.Duration
	for _, g := range p.groups {
		wall, err := r.execCampaign(p.points, p.cps, g, round, p.mode, parent)
		total += wall
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// scenarioRound runs the scenario points' trials one after another.
// A trial's time covers realizing its topology, the run with its
// injector and NDJSON sink, and flushing the sink; replaying the
// stream and checking the output happen after it.
func (p *plan) scenarioRound(r *runner, round int, parent int32) (time.Duration, error) {
	var total time.Duration
	var buf bytes.Buffer
	for pi, sp := range p.scen {
		for t := 0; t < sp.trials; t++ {
			seed := seedFor(r.seed, round, pi) + uint64(t)
			buf.Reset()
			res, dur, err := r.scenarioTrial(sp, seed, &buf, parent)
			total += dur
			r.attempted++
			sp.pt.trials++
			sp.pt.wallNS += dur.Nanoseconds()
			r.durations.add(dur.Nanoseconds())
			if err != nil {
				r.fail(sp.pt, seed, err.Error())
				continue
			}
			r.counters.add(sp.pt, res)
			r.heapSample(sp.pt)
			if err := r.checkScenario(sp, res, buf.Bytes(), parent); err != nil {
				r.fail(sp.pt, seed, err.Error())
				continue
			}
			r.steps += res.Steps
		}
	}
	return total, nil
}

// scenarioTrial runs one timed scenario trial.
func (r *runner) scenarioTrial(sp *scenarioPoint, seed uint64, buf *bytes.Buffer, parent int32) (core.Result, time.Duration, error) {
	n := sp.pt.n
	start := time.Now()
	topo, err := sp.topo.Realize(n, seed)
	if err != nil {
		return core.Result{}, time.Since(start), err
	}
	realized := time.Now()
	ndjson := trace.NewNDJSON(buf)
	opts := core.Options{Seed: seed, Topology: topo, MaxSteps: scenarioBudget,
		Detector: sp.pt.detector, Events: ndjson, Injector: sp.prepared.NewInjection(seed)}
	if r.tr != nil {
		sink := &tracedSink{t: r.tr, inner: ndjson}
		opts.Events = sink
		opts.Injector = &tracedInjector{t: r.tr, inner: opts.Injector, sink: sink}
		opts.Detector = r.tr.wrapDetector(opts.Detector)
	}
	runStart := time.Now()
	res, err := core.Run(sp.prepared.Proto, n, opts)
	runEnd := time.Now()
	if err == nil {
		err = ndjson.Flush()
	}
	dur := time.Since(start)
	if r.tr != nil {
		r.tr.add("core.topology.Realize", parent, start, realized)
		r.tr.add("core.Run", parent, runStart, runEnd)
		r.tr.realizeNS += realized.Sub(start).Nanoseconds()
		r.tr.realizes++
		r.tr.sinkBytes += int64(buf.Len())
	}
	return res, dur, err
}

// checkScenario checks a scenario trial: the output checker, then the
// NDJSON stream's replay to the exact final configuration.
func (r *runner) checkScenario(sp *scenarioPoint, res core.Result, stream []byte, parent int32) error {
	var sp0 int32
	if r.tr != nil {
		sp0 = r.tr.begin("bench.check", parent)
		defer r.tr.end(sp0)
	}
	if err := checkTrial(sp.pt, res); err != nil {
		return err
	}
	start := time.Now()
	recs, err := checkReplay(stream, core.NewConfig(sp.prepared.Proto, sp.pt.n), res.Final)
	if r.tr != nil {
		end := time.Now()
		r.tr.add("trace.Replay", sp0, start, end)
		r.tr.replayNS += end.Sub(start).Nanoseconds()
		r.tr.replayRecs += int64(recs)
	}
	if err != nil {
		return fmt.Errorf("trace replay: %w", err)
	}
	return nil
}
