package main

import (
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// layerMetric is one per-layer metric of the traced run. Layer names
// what must run in a workload for the metric to be measured there (an
// absent metric reports 0); Moves and Flat record which end-to-end
// metric it should move, on which workload, and where it should not.
type layerMetric struct {
	Name  string
	Unit  string
	Layer string
	Moves string
	Flat  string
}

const (
	movesCampaign = "trials_per_s, trial_p99_ms on paper-tables"
	flatCampaign  = "large-n"
	movesEngine   = "steps_per_s on small-n-budget (fast), large-n (batch, sparse)"
	flatEngine    = "batch rows on paper-tables"
	movesBatch    = "steps_per_s, peak_heap_mb on large-n"
	flatBatch     = "absent elsewhere"
	movesPair     = "steps_per_s on small-n-budget"
	flatPair      = "large-n (no PairIndex above n=4096)"
	movesClass    = "steps_per_s on large-n (global-star), trials_per_s on scenario-trace"
	flatClass     = "paper-tables"
	movesDetector = "steps_per_s on small-n-budget (cliques)"
	flatDetector  = "large-n simple-global-line"
	movesStats    = "steps_per_s on large-n"
	flatStats     = "every other workload"
	movesScenario = "trials_per_s on scenario-trace"
	flatScenario  = "absent elsewhere"
	movesTrace    = "trials_per_s on scenario-trace"
	flatTrace     = "paper-tables, small-n-budget, large-n (zero cost when off)"
	movesSelf     = "the end-to-end metrics of the workload whose layer share moves"
)

// layerMetrics are the per-layer metrics in report order.
var layerMetrics = []layerMetric{
	{"campaign.busy_frac", "frac", "campaign", movesCampaign, flatCampaign},
	{"campaign.overhead_us_per_trial", "us", "campaign", movesCampaign, flatCampaign},
	{"campaign.alloc_bytes_per_trial", "bytes", "campaign", movesCampaign, flatCampaign},

	{"core.baseline.ns_per_landing", "ns", "core.baseline", movesEngine, flatEngine},
	{"core.fast.ns_per_landing", "ns", "core.fast", movesEngine, flatEngine},
	{"core.sparse.ns_per_landing", "ns", "core.sparse", movesEngine, flatEngine},
	{"core.batch.ns_per_landing", "ns", "core.batch", movesEngine, flatEngine},
	{"core.landing_frac", "frac", "core", movesEngine, flatEngine},
	{"core.effective_frac", "frac", "core", movesEngine, flatEngine},
	{"core.detector_checks_per_landing", "count", "core", movesEngine, flatEngine},
	{"core.index_builds_per_trial", "count", "core", movesEngine, flatEngine},
	{"core.snapshot_restores_per_trial", "count", "core", movesEngine, flatEngine},

	{"core.batch.bucket_frac", "frac", "core.batch", movesBatch, flatBatch},
	{"core.batch.exact_fallback_frac", "frac", "core.batch", movesBatch, flatBatch},
	{"core.batch.collapsed_frac", "frac", "core.batch", movesBatch, flatBatch},
	{"core.batch.fast_forward_epochs", "count", "core.batch", movesBatch, flatBatch},

	{"core.pairindex.build_us", "us", "core.pairindex", movesPair, flatPair},
	{"core.pairindex.sample_ns", "ns", "core.pairindex", movesPair, flatPair},
	{"core.pairindex.update_ns", "ns", "core.pairindex", movesPair, flatPair},
	{"core.classindex.build_us", "us", "core.classindex", movesClass, flatClass},
	{"core.classindex.sample_ns", "ns", "core.classindex", movesClass, flatClass},
	{"core.classindex.update_ns", "ns", "core.classindex", movesClass, flatClass},
	{"core.sparse.sample_reject_ratio", "ratio", "core.sparse", movesClass, flatClass},
	{"core.config.apply_ns", "ns", "core", movesEngine, flatEngine},

	{"protocols.detector_ns_per_check", "ns", "protocols", movesDetector, flatDetector},
	{"protocols.detector_allocs_per_check", "count", "protocols", movesDetector, flatDetector},
	{"protocols.detector_share", "frac", "protocols", movesDetector, flatDetector},

	{"stats.hypergeometric_ns", "ns", "stats", movesStats, flatStats},
	{"stats.neg_hypergeometric_run_ns", "ns", "stats", movesStats, flatStats},
	{"core.rng.multinomial_buckets_ns", "ns", "stats", movesStats, flatStats},
	{"core.rng.geometric_exp_ns", "ns", "stats", movesStats, flatStats},

	{"scenario.inject_ns_per_firing", "ns", "scenario", movesScenario, flatScenario},
	{"scenario.writes_per_firing", "count", "scenario", movesScenario, flatScenario},
	{"core.topology.realize_ms", "ms", "scenario", movesScenario, flatScenario},

	{"trace.ns_per_event", "ns", "trace", movesTrace, flatTrace},
	{"trace.bytes_per_event", "bytes", "trace", movesTrace, flatTrace},
	{"trace.events_per_landing", "count", "trace", movesTrace, flatTrace},
	{"trace.replay_ns_per_record", "ns", "trace", movesTrace, flatTrace},

	{"campaign.self_frac", "frac", "spans", movesSelf, "-"},
	{"core.self_frac", "frac", "spans", movesSelf, "-"},
	{"protocols.self_frac", "frac", "spans", movesSelf, "-"},
	{"scenario.self_frac", "frac", "spans", movesSelf, "-"},
	{"trace.self_frac", "frac", "spans", movesSelf, "-"},
	{"bench.self_frac", "frac", "spans", movesSelf, "-"},
	{"bench.tracing_overhead_frac", "frac", "spans", "none: the traced run's time against the untraced run's", "-"},
}

// Probe sizes: landings the landing-loop replay re-enacts per point and
// index, detector configurations sampled per point, and calls timed
// per sampler shape.
const (
	replayLandings  = 4096
	detectorSamples = 8
	samplerCalls    = 20000
)

// computeLayers derives every per-layer metric from the traced pass
// (runner rt, tracer tr) and the probes it runs afterwards. untraced and
// traced are the timed host times of the same rounds without and with
// tracing.
func computeLayers(p *plan, rt *runner, tr *tracer, untraced, traced time.Duration) (map[string]float64, map[string]bool, error) {
	v := make(map[string]float64)
	present := map[string]bool{"core": true, "spans": true}
	c := &rt.counters
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	// campaign: a probe round with the checker off, so the layer's
	// own allocation and idle time are not mixed with the benchmark's.
	if p.scen == nil {
		probe, err := campaignProbeRound(p, rt.seed)
		if err != nil {
			return nil, nil, err
		}
		present["campaign"] = true
		v["campaign.busy_frac"] = ratio(probe.busyNS, probe.wallWorkerNS)
		v["campaign.overhead_us_per_trial"] = float64(probe.wallWorkerNS-probe.busyNS) / float64(max(probe.trials, 1)) / 1e3
		v["campaign.alloc_bytes_per_trial"] = float64(probe.allocBytes) / float64(max(probe.trials, 1))
	}

	// core engines, from Result.Metrics of the traced trials. auto
	// picks the baseline loop on none of these workloads, so its row
	// comes from a probe of the workload's points on the baseline
	// engine unless a traced trial ran there.
	for _, e := range []string{"baseline", "fast", "sparse", "batch"} {
		if et := c.engines[e]; et != nil && et.landings > 0 {
			present["core."+e] = true
			v["core."+e+".ns_per_landing"] = ratio(et.wallNS, et.landings)
		}
	}
	if !present["core.baseline"] {
		wallNS, landings, err := probeBaseline(p.points, rt.seed)
		if err != nil {
			return nil, nil, err
		}
		present["core.baseline"] = true
		v["core.baseline.ns_per_landing"] = ratio(wallNS, landings)
	}
	v["core.landing_frac"] = ratio(c.landings, c.steps)
	v["core.effective_frac"] = ratio(c.effective, c.landings)
	v["core.detector_checks_per_landing"] = ratio(c.detectorChecks, c.landings)
	v["core.index_builds_per_trial"] = ratio(c.indexBuilds, c.trials)
	v["core.snapshot_restores_per_trial"] = ratio(c.snapshotRestores, c.trials)
	if c.batchTrials > 0 {
		v["core.batch.bucket_frac"] = ratio(c.bucketDraws, c.batchLandings)
		v["core.batch.exact_fallback_frac"] = ratio(c.exactFallback, c.batchLandings)
		v["core.batch.collapsed_frac"] = ratio(c.batchCollapsed, c.batchLandings+c.batchCollapsed)
		v["core.batch.fast_forward_epochs"] = ratio(c.ffEpochs, c.batchTrials)
	}
	if c.sparseLandings > 0 {
		present["core.sparse"] = true
		v["core.sparse.sample_reject_ratio"] = ratio(c.sampleRejections, c.sparseLandings)
	}

	// core indexes and detector allocations: the landing-loop replay.
	d := replayIndexes(p.points, rt.seed)
	if d.pair.builds > 0 {
		present["core.pairindex"] = true
		v["core.pairindex.build_us"] = float64(d.pair.buildNS) / float64(d.pair.builds) / 1e3
		v["core.pairindex.sample_ns"] = ratio(d.pair.sampleNS, d.pair.samples)
		v["core.pairindex.update_ns"] = ratio(d.pair.updateNS, d.pair.updates)
	}
	if d.class.builds > 0 {
		present["core.classindex"] = true
		v["core.classindex.build_us"] = float64(d.class.buildNS) / float64(d.class.builds) / 1e3
		v["core.classindex.sample_ns"] = ratio(d.class.sampleNS, d.class.samples)
		v["core.classindex.update_ns"] = ratio(d.class.updateNS, d.class.updates)
	}
	v["core.config.apply_ns"] = ratio(d.applyNS, d.applies)

	// protocols: the Stable wrapper in the traced runs, allocations
	// from the replay's sampled configurations.
	var runNS int64
	for _, et := range c.engines {
		runNS += et.wallNS
	}
	if calls := tr.detCalls.Load(); calls > 0 {
		present["protocols"] = true
		v["protocols.detector_ns_per_check"] = ratio(tr.detNS.Load(), calls)
		v["protocols.detector_share"] = ratio(tr.detNS.Load(), runNS)
		v["protocols.detector_allocs_per_check"] = d.detectorAllocs
	}

	// stats: sampler calls at the shapes of large-n's batch plans.
	if c.batchTrials > 0 {
		present["stats"] = true
		finals := make([]*core.Config, 0, len(rt.finals))
		for _, pt := range p.points {
			if cfg := rt.finals[pt]; cfg != nil {
				finals = append(finals, cfg)
			}
		}
		s := probeSamplers(finals, rt.seed)
		v["stats.hypergeometric_ns"] = s.hypergeometric
		v["stats.neg_hypergeometric_run_ns"] = s.negHypergeometricRun
		v["core.rng.multinomial_buckets_ns"] = s.multinomialBuckets
		v["core.rng.geometric_exp_ns"] = s.geometricExp
	}

	// scenario and trace: the injector and sink wrappers.
	if tr.realizes > 0 {
		present["scenario"], present["trace"] = true, true
		v["scenario.inject_ns_per_firing"] = ratio(tr.injectNS-tr.sinkInInjectNS, c.faultFirings)
		v["scenario.writes_per_firing"] = ratio(c.faultWrites, c.faultFirings)
		v["core.topology.realize_ms"] = float64(tr.realizeNS) / float64(tr.realizes) / 1e6
		v["trace.ns_per_event"] = ratio(tr.sinkNS, tr.sinkEvents)
		v["trace.bytes_per_event"] = ratio(tr.sinkBytes, tr.sinkEvents)
		v["trace.events_per_landing"] = ratio(tr.sinkEvents, c.landings)
		v["trace.replay_ns_per_record"] = ratio(tr.replayNS, tr.replayRecs)
	}

	// Self time per layer, as a share of all self time.
	self := tr.selfTimes()
	var total int64
	for _, ns := range self {
		total += max(ns, 0)
	}
	for _, l := range []string{"campaign", "core", "protocols", "scenario", "trace", "bench"} {
		v[l+".self_frac"] = ratio(max(self[l], 0), total)
	}
	v["bench.tracing_overhead_frac"] = traced.Seconds()/untraced.Seconds() - 1

	for _, m := range layerMetrics {
		if _, ok := v[m.Name]; !ok {
			v[m.Name] = 0
		}
	}
	return v, present, nil
}

// campaignProbeRound runs one round of a campaign plan with the output
// checker off and no tracer, bracketing each campaign.Execute with
// allocation counters.
func campaignProbeRound(p *plan, seed uint64) (*campaignProbe, error) {
	r := newRunner(seed, nil)
	r.probe = &campaignProbe{}
	for _, g := range p.groups {
		if _, err := r.execCampaign(p.points, p.cps, g, 0, checkNone, 0); err != nil {
			return nil, err
		}
	}
	return r.probe, nil
}

// baselineProbeSteps is the step budget of each baseline probe run.
const baselineProbeSteps = 1 << 16

// probeBaseline runs every distinct point of a workload for
// baselineProbeSteps scheduler steps on the baseline engine — on the
// complete interaction graph, without faults — and returns the runs'
// total wall time and landings.
func probeBaseline(points []*point, seed uint64) (wallNS, landings int64, err error) {
	seen := make(map[string]bool)
	for _, pt := range points {
		key := fmt.Sprintf("%p/%d/%t", pt.proto, pt.n, pt.initial != nil)
		if seen[key] {
			continue
		}
		seen[key] = true
		opts := core.Options{Seed: seed, Engine: core.EngineBaseline, Detector: pt.detector, MaxSteps: baselineProbeSteps}
		if pt.initial != nil {
			if opts.Initial, err = pt.initial(); err != nil {
				return 0, 0, err
			}
		}
		res, err := core.Run(pt.proto, pt.n, opts)
		if err != nil {
			return 0, 0, fmt.Errorf("baseline probe of %s: %w", pt.label, err)
		}
		wallNS += res.Metrics.WallNS
		landings += res.Metrics.Landings
	}
	return wallNS, landings, nil
}

// indexTotals accumulates one index's replay timings.
type indexTotals struct {
	builds, samples, updates    int64
	buildNS, sampleNS, updateNS int64
}

type replayResult struct {
	pair, class      indexTotals
	applies, applyNS int64
	detectorAllocs   float64
}

// clockOverhead estimates the cost of one time.Now pair, subtracted
// from every per-call timing of the replay.
func clockOverhead() int64 {
	best := int64(math.MaxInt64)
	for range 1000 {
		a := time.Now()
		b := time.Now()
		best = min(best, b.Sub(a).Nanoseconds())
	}
	return best
}

// replayIndexes re-enacts the engines' landing loop — Sample, then
// Config.Apply, then the index update — with public calls only, on each
// distinct (protocol, n, initial configuration) of the workload:
// through a PairIndex where the fast engine could run it (n ≤ 4096)
// and through a ClassIndex everywhere. Along the way it samples
// configurations on which it measures the detector's allocations.
func replayIndexes(points []*point, seed uint64) replayResult {
	var d replayResult
	ovh := clockOverhead()
	timed := func(a, b time.Time) int64 { return max(b.Sub(a).Nanoseconds()-ovh, 0) }
	var allocSum float64
	var allocN int
	seen := make(map[string]bool)
	for _, pt := range points {
		key := fmt.Sprintf("%p/%d/%t", pt.proto, pt.n, pt.initial != nil)
		if seen[key] {
			continue
		}
		seen[key] = true
		start := func() *core.Config {
			if pt.initial != nil {
				if cfg, err := pt.initial(); err == nil {
					return cfg.Clone()
				}
			}
			return core.NewConfig(pt.proto, pt.n)
		}
		var samples []*core.Config
		sampleDetector := pt.detector.Stable != nil && pt.detector.Gate == core.GateNone
		if pt.n <= 4096 {
			cfg := start()
			rng := core.NewRNG(seed)
			a := time.Now()
			ix := core.NewPairIndex(cfg)
			d.pair.buildNS += timed(a, time.Now())
			d.pair.builds++
			for i := 0; i < replayLandings && ix.Enabled() > 0; i++ {
				a := time.Now()
				u, v := ix.Sample(rng)
				b := time.Now()
				eff, _ := cfg.Apply(u, v, rng)
				c := time.Now()
				d.pair.sampleNS += timed(a, b)
				d.pair.samples++
				d.applyNS += timed(b, c)
				d.applies++
				if eff {
					ix.Update(u, v)
					d.pair.updateNS += timed(c, time.Now())
					d.pair.updates++
				}
				if sampleDetector && i%(replayLandings/detectorSamples) == 0 {
					samples = append(samples, cfg.Clone())
				}
			}
		}
		cfg := start()
		rng := core.NewRNG(seed)
		a := time.Now()
		ci := core.NewClassIndex(cfg)
		d.class.buildNS += timed(a, time.Now())
		d.class.builds++
		for i := 0; i < replayLandings && ci.Enabled() > 0; i++ {
			a := time.Now()
			u, v := ci.Sample(rng)
			b := time.Now()
			bu, bv := cfg.Node(u), cfg.Node(v)
			eff, edgeChanged := cfg.Apply(u, v, rng)
			c := time.Now()
			d.class.sampleNS += timed(a, b)
			d.class.samples++
			d.applyNS += timed(b, c)
			d.applies++
			if eff {
				ci.Update(u, v, bu, bv, edgeChanged)
				d.class.updateNS += timed(c, time.Now())
				d.class.updates++
			}
			if sampleDetector && pt.n > 4096 && i%(replayLandings/detectorSamples) == 0 {
				samples = append(samples, cfg.Clone())
			}
		}
		for _, s := range samples {
			allocSum += testing.AllocsPerRun(3, func() { pt.detector.Stable(s) })
			allocN++
		}
	}
	if allocN > 0 {
		d.detectorAllocs = allocSum / float64(allocN)
	}
	return d
}

// samplerTimes are ns per call of the batch engine's samplers.
type samplerTimes struct {
	hypergeometric, negHypergeometricRun, multinomialBuckets, geometricExp float64
}

// batchPlanSize is the bucket-plan size the sampler probe draws: the
// middle of the batch engine's adaptive range (8 to 2¹⁵ landings).
const batchPlanSize = 1024

// probeSamplers times the batch engine's samplers at the shapes of
// large-n's final configurations: the census of enabled
// (state, state, edge) classes gives the multinomial bucket weights
// and the geometric gap rate, one multinomial plan of batchPlanSize
// landings gives the shapes of the run draws: the negative
// hypergeometric run of the plan's largest cell against the rest, and
// the hypergeometric split of that cell's landings between the heaviest
// class and all other enabled pairs.
func probeSamplers(finals []*core.Config, seed uint64) samplerTimes {
	rng := core.NewRNG(seed)
	var st samplerTimes
	var shapes int
	var sink int64
	for _, cfg := range finals {
		weights := classWeights(cfg)
		var m int64
		for _, w := range weights {
			m += w
		}
		if m == 0 {
			continue
		}
		shapes++
		n := int64(cfg.N())
		pairs := n * (n - 1) / 2
		counts := rng.MultinomialBuckets(batchPlanSize, weights, nil)
		var best, heaviest int64
		for i, c := range counts {
			best = max(best, c)
			heaviest = max(heaviest, weights[i])
		}
		invLambda := 1 / -math.Log1p(-float64(m)/float64(pairs))

		a := time.Now()
		for range samplerCalls {
			sink += stats.Hypergeometric(rng, best, heaviest, m)
		}
		b := time.Now()
		for range samplerCalls {
			sink += stats.NegHypergeometricRun(rng, best, batchPlanSize-best)
		}
		c := time.Now()
		out := make([]int64, 0, len(weights))
		for range samplerCalls {
			out = rng.MultinomialBuckets(batchPlanSize, weights, out)
		}
		e := time.Now()
		for range samplerCalls {
			sink += rng.GeometricExp(invLambda)
		}
		f := time.Now()
		st.hypergeometric += float64(b.Sub(a).Nanoseconds()) / samplerCalls
		st.negHypergeometricRun += float64(c.Sub(b).Nanoseconds()) / samplerCalls
		st.multinomialBuckets += float64(e.Sub(c).Nanoseconds()) / samplerCalls
		st.geometricExp += float64(f.Sub(e).Nanoseconds()) / samplerCalls
	}
	samplerSink = sink
	if shapes > 0 {
		st.hypergeometric /= float64(shapes)
		st.negHypergeometricRun /= float64(shapes)
		st.multinomialBuckets /= float64(shapes)
		st.geometricExp /= float64(shapes)
	}
	return st
}

// samplerSink keeps the timed sampler calls from being optimized away.
var samplerSink int64

// classWeights returns the enabled-pair counts of a configuration's
// (state, state, edge) classes — the census the batch engine plans
// over — computed from the state counts, the active edges and the
// protocol's effectiveness table.
func classWeights(cfg *core.Config) []int64 {
	p := cfg.Protocol()
	q := p.Size()
	counts := cfg.CountAll(nil)
	active := make([]int64, q*q)
	cfg.ForEachActiveEdge(func(u, v int) {
		a, b := cfg.Node(u), cfg.Node(v)
		if a > b {
			a, b = b, a
		}
		active[int(a)*q+int(b)]++
	})
	var weights []int64
	for a := 0; a < q; a++ {
		for b := a; b < q; b++ {
			var pairs int64
			if a == b {
				pairs = int64(counts[a]) * int64(counts[a]-1) / 2
			} else {
				pairs = int64(counts[a]) * int64(counts[b])
			}
			act := active[a*q+b]
			if w := pairs - act; w > 0 && p.EffectiveOn(core.State(a), core.State(b), false) {
				weights = append(weights, w)
			}
			if act > 0 && p.EffectiveOn(core.State(a), core.State(b), true) {
				weights = append(weights, act)
			}
		}
	}
	return weights
}

// reportLayers prints the traced run's per-layer table: each metric
// with the end-to-end metric and workload it should move, and where it
// should stay flat.
func reportLayers(w io.Writer, workload string, v map[string]float64, present map[string]bool) {
	fmt.Fprintf(w, "per-layer (traced run, workload %s):\n", workload)
	fmt.Fprintf(w, "  %-36s %14s %-6s %-8s %s\n", "metric", "value", "unit", "", "moves → / flat on")
	for _, m := range layerMetrics {
		mark := ""
		if !present[m.Layer] {
			mark = "absent"
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s %-8s %s / %s\n", m.Name, v[m.Name], m.Unit, mark, m.Moves, m.Flat)
	}
}
