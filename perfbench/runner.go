package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// point is one cell of a workload: what runs, and what its output must
// satisfy. The index replay of the traced run re-enacts the landing
// loop on proto at n from initial.
type point struct {
	label    string
	protocol string
	n        int
	// expectConverge marks points whose every trial must converge
	// within budget; the others are budgeted by design.
	expectConverge bool
	target         target

	proto    *core.Protocol
	detector core.Detector
	initial  func() (*core.Config, error) // nil means all-q0

	// Per-run tallies for the input guard and the provenance record.
	trials   int
	landings int64
	wallNS   int64
	engines  map[string]int
}

// engineTotals accumulates the trials one engine ran.
type engineTotals struct {
	trials, wallNS, landings int64
}

// counters accumulates the Result.Metrics of every completed trial of
// a run. add is called from campaign workers, so it locks.
type counters struct {
	mu      sync.Mutex
	engines map[string]*engineTotals

	trials, steps, landings, skipped, collapsed, effective int64
	detectorChecks, indexBuilds, snapshotRestores          int64

	batchTrials, batchLandings, batchCollapsed, batchSteps int64
	bucketDraws, exactFallback, ffEpochs                   int64

	sparseLandings, sampleRejections int64
	faultFirings, faultWrites        int64
}

func (c *counters) add(pt *point, res core.Result) {
	m := res.Metrics
	engine := res.Engine.String()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.engines == nil {
		c.engines = make(map[string]*engineTotals)
	}
	et := c.engines[engine]
	if et == nil {
		et = &engineTotals{}
		c.engines[engine] = et
	}
	et.trials++
	et.wallNS += m.WallNS
	et.landings += m.Landings

	c.trials++
	c.steps += res.Steps
	c.landings += m.Landings
	c.skipped += m.SkippedSteps
	c.collapsed += m.CollapsedLandings
	c.effective += res.EffectiveSteps
	c.detectorChecks += m.DetectorChecks
	c.indexBuilds += m.IndexBuilds
	c.snapshotRestores += m.SnapshotRestores
	switch res.Engine {
	case core.EngineBatch:
		c.batchTrials++
		c.batchLandings += m.Landings
		c.batchCollapsed += m.CollapsedLandings
		c.batchSteps += res.Steps
		c.bucketDraws += m.BucketDraws
		c.exactFallback += m.ExactFallbackLandings
		c.ffEpochs += m.FastForwardEpochs
	case core.EngineSparse:
		c.sparseLandings += m.Landings
		c.sampleRejections += m.SampleRejections
	}
	c.faultFirings += m.FaultFirings
	c.faultWrites += m.FaultNodeWrites + m.FaultEdgeWrites

	pt.landings += m.Landings
	if pt.engines == nil {
		pt.engines = make(map[string]int)
	}
	pt.engines[engine]++
}

// runner executes a workload's rounds and folds every trial into the
// run's totals. tr is nil on untraced runs.
type runner struct {
	seed uint64
	tr   *tracer

	counters
	durations *durationHist
	steps     int64 // scheduler steps of completed trials
	attempted int
	failed    int
	failures  []string
	measured  time.Duration
	rounds    []roundTotals

	nextID   atomic.Int64
	mu       sync.Mutex
	verdicts map[int64]string // inline check failures by trial id
	deferred []deferredTrial
	// finals keeps the last final configuration of each deferred
	// point on traced runs: the sampler probe's shapes.
	finals map[*point]*core.Config
	// probe, when set, makes campaign rounds skip the output checker
	// and bracket campaign.Execute with allocation counters: the
	// traced run's campaign-layer probe.
	probe *campaignProbe
	// beforeRound, when set, runs before every round, outside the
	// timed region.
	beforeRound func() error
	// sampleHeap makes the run measure its live heap: see heapSample.
	// heapSampled holds the points sampled this round and heapPeak the
	// round's largest sample; gcNS is the time the forced collections
	// took inside campaigns, which the timed region excludes.
	sampleHeap  bool
	heapSampled map[*point]bool
	heapPeak    int64
	gcNS        atomic.Int64
}

// deferredTrial is a completed trial whose check waits until its
// campaign has returned: single-trial campaigns leave the workspace
// that owns res.Final untouched after the run.
type deferredTrial struct {
	id   int64
	seed uint64
	pt   *point
	res  core.Result
}

// campaignProbe collects the campaign layer's own cost.
type campaignProbe struct {
	wallWorkerNS int64 // Σ campaign wall × workers
	busyNS       int64 // Σ RunRecord.DurationNS
	allocBytes   uint64
	trials       int64
}

func newRunner(seed uint64, tr *tracer) *runner {
	return &runner{seed: seed, tr: tr, durations: newDurationHist(), verdicts: make(map[int64]string),
		heapSampled: make(map[*point]bool)}
}

// maxReported caps the failure reasons kept for the report.
const maxReported = 20

func (r *runner) fail(pt *point, seed uint64, reason string) {
	r.failed++
	if len(r.failures) < maxReported {
		r.failures = append(r.failures, fmt.Sprintf("%s seed %d: %s", pt.label, seed, reason))
	}
}

// seedFor derives the base seed of one point in one round from the
// run seed by a SplitMix64 scramble, so every round and point draws
// fresh, reproducible trials.
func seedFor(seed uint64, round, pointIdx int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(round)<<32 + uint64(pointIdx) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// checkMode says where a campaign trial's output check runs.
type checkMode int

const (
	checkInline   checkMode = iota // in the worker, right after the run
	checkDeferred                  // after the campaign returns
	checkNone                      // campaign-layer probe: unchecked
)

// metricFor returns the campaign metric that hands every completed
// trial's Result to the benchmark: it tallies the engine counters,
// checks (or stashes) the output, and returns a trial id that OnRun
// uses to join the verdict to the trial's record. seed is the point's
// base seed, which is the trial's seed in the single-trial campaigns
// whose checks are deferred.
func (r *runner) metricFor(pt *point, seed uint64, mode checkMode, parent int32) campaign.Metric {
	return func(res core.Result, _ int) float64 {
		id := r.nextID.Add(1)
		if r.tr != nil {
			end := time.Now()
			r.tr.add("core.Run", parent, end.Add(-time.Duration(res.Metrics.WallNS)), end)
		}
		if mode == checkNone {
			return float64(id)
		}
		r.counters.add(pt, res)
		r.heapSample(pt)
		switch mode {
		case checkInline:
			var sp int32
			if r.tr != nil {
				sp = r.tr.begin("bench.check", parent)
			}
			err := checkTrial(pt, res)
			if r.tr != nil {
				r.tr.end(sp)
			}
			if err != nil {
				r.mu.Lock()
				r.verdicts[id] = err.Error()
				r.mu.Unlock()
			}
		case checkDeferred:
			r.mu.Lock()
			r.deferred = append(r.deferred, deferredTrial{id: id, seed: seed, pt: pt, res: res})
			r.mu.Unlock()
		}
		return float64(id)
	}
}

// execCampaign runs the points cps[idx] — each for its own Trials —
// as one campaign.Execute and folds every record into the run. It
// returns the campaign's wall time.
func (r *runner) execCampaign(pts []*point, cps []campaign.Point, idx []int, round int, mode checkMode, parent int32) (time.Duration, error) {
	points := make([]campaign.Point, len(idx))
	var exec int32
	if r.tr != nil {
		exec = r.tr.begin("campaign.Execute", parent)
	}
	for i, pi := range idx {
		cp := cps[pi]
		cp.BaseSeed = seedFor(r.seed, round, pi)
		cp.Metric = r.metricFor(pts[pi], cp.BaseSeed, mode, exec)
		if r.tr != nil {
			cp.Detector = r.tr.wrapDetector(cp.Detector)
		}
		points[i] = cp
	}
	var failedIDs map[int64]bool
	onRun := func(rec campaign.RunRecord) {
		pt := pts[idx[rec.Point]]
		if mode == checkNone {
			r.probe.busyNS += rec.DurationNS
			r.probe.trials++
			return
		}
		r.attempted++
		pt.trials++
		pt.wallNS += rec.DurationNS
		r.durations.add(rec.DurationNS)
		reason := ""
		switch {
		case rec.Err != "":
			reason = rec.Err
		case rec.Stopped:
			reason = "stopped"
		case !rec.Converged && pt.expectConverge:
			reason = "did not converge within its budget"
		}
		id := int64(rec.Value)
		if id > 0 {
			r.mu.Lock()
			if v, ok := r.verdicts[id]; ok && reason == "" {
				reason = v
			}
			delete(r.verdicts, id)
			r.mu.Unlock()
		}
		if reason != "" {
			r.fail(pt, rec.Seed, reason)
			if failedIDs == nil {
				failedIDs = make(map[int64]bool)
			}
			failedIDs[id] = true
			return
		}
		r.steps += rec.Steps
	}
	var before runtime.MemStats
	if mode == checkNone {
		runtime.ReadMemStats(&before)
	}
	gcBefore := r.gcNS.Load()
	start := time.Now()
	_, err := campaign.Execute(context.Background(), points, campaign.Options{Workers: loadWorkers, OnRun: onRun})
	wall := time.Since(start) - time.Duration(r.gcNS.Load()-gcBefore)
	if r.tr != nil {
		r.tr.end(exec)
	}
	if mode == checkNone {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.probe.allocBytes += after.TotalAlloc - before.TotalAlloc
		r.probe.wallWorkerNS += wall.Nanoseconds() * loadWorkers
	}
	if err != nil {
		return wall, fmt.Errorf("campaign: %w", err)
	}
	if mode == checkDeferred {
		r.runDeferred(failedIDs, parent)
		// Start the next single-trial campaign from a collected heap,
		// so no trial pays for collecting its predecessor's garbage.
		runtime.GC()
	}
	return wall, nil
}

// runDeferred checks the trials stashed by checkDeferred campaigns.
func (r *runner) runDeferred(failedIDs map[int64]bool, parent int32) {
	r.mu.Lock()
	pending := r.deferred
	r.deferred = nil
	r.mu.Unlock()
	for _, d := range pending {
		var sp int32
		if r.tr != nil {
			sp = r.tr.begin("bench.check", parent)
		}
		err := checkTrial(d.pt, d.res)
		if r.tr != nil {
			r.tr.end(sp)
			if r.finals == nil {
				r.finals = make(map[*point]*core.Config)
			}
			r.finals[d.pt] = d.res.Final
		}
		if err != nil && !failedIDs[d.id] {
			r.fail(d.pt, d.seed, err.Error())
		}
	}
}

// guard is the workload input guard: every point must land at least
// once, and every trial of a converging point must converge (those
// failures are already counted per trial).
func (r *runner) guard(pts []*point) []string {
	var bad []string
	for _, pt := range pts {
		if pt.trials > 0 && pt.landings == 0 {
			bad = append(bad, fmt.Sprintf("%s made no landings in %d trials: its inputs leave no enabled pair", pt.label, pt.trials))
		}
	}
	return bad
}

// engineSummary lists the engines each point ran on, for provenance.
func engineSummary(pts []*point) []string {
	var out []string
	for _, pt := range pts {
		names := make([]string, 0, len(pt.engines))
		for e := range pt.engines {
			names = append(names, e)
		}
		sort.Strings(names)
		mean := 0.0
		if pt.trials > 0 {
			mean = float64(pt.wallNS) / float64(pt.trials) / 1e6
		}
		out = append(out, fmt.Sprintf("%s: %v, %d trials, %.3g ms mean, %d landings", pt.label, names, pt.trials, mean, pt.landings))
	}
	return out
}

// heapSample measures the live heap once per point per round, on the
// point's first completed trial: it forces a collection while the
// caller still holds the trial's workspace and final configuration, and
// folds the live heap into the round's peak. The samples are taken at
// the same trials of every run, so the peak is a footprint rather than
// whatever a background collection happened to find in flight.
func (r *runner) heapSample(pt *point) {
	if !r.sampleHeap {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.heapSampled[pt] {
		return
	}
	r.heapSampled[pt] = true
	start := time.Now()
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	if live[0].Value.Kind() == metrics.KindUint64 {
		r.heapPeak = max(r.heapPeak, int64(live[0].Value.Uint64()))
	}
	r.gcNS.Add(time.Since(start).Nanoseconds())
}
