// Command perfbench is the repository's benchmark: it drives four
// workloads through the public APIs of the campaign, core, protocols,
// scenario and trace packages, checks every trial's output, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of
// a traced run) with a JSON result as the last line of standard
// output. README.md describes the workloads and metrics.
//
// Usage:
//
//	perfbench --workload paper-tables --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, measures, reports, and returns the exit code:
// 0 for a correct run, 1 when the output checker or the input guard
// failed, 2 for usage or set-up errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-tables, small-n-budget, large-n or scenario-trace")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "host seconds to measure")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for result records and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(loadWorkers)
	prov := newProvenance(w.name, *seed, *seconds, *traced == 1)
	fmt.Fprintln(stdout, "perfbench", prov)
	fmt.Fprintf(stdout, "workload %s: %s\n", w.name, w.why)
	out, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	out.Provenance = prov
	out.report(stdout)
	if *traced == 1 && out.tr != nil {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.ndjson", w.name, *seed))
		if err := out.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 2
		}
		fmt.Fprintln(stdout, "spans written to", path)
	}
	line, err := out.resultLine(*traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	record := filepath.Join(*outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *traced))
	if err := out.writeRecord(record); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing result record:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// loadWorkers is the campaign worker count of every run and the
// number of processors the Go runtime may use: one closed loop on one
// processor, with the garbage collector taking its share of that
// processor's time. On the small shared hosts the benchmark runs on, a
// second worker, or a collector running beside the worker, competes
// with the host's other tenants for the same few cores, so its
// throughput measures the host's scheduler more than the program.
const loadWorkers = 1

// setupRepsPerRound is how many times a run sets its workload up
// again before each round; setup_s is the median over all set-ups.
// Spreading the set-ups over the whole run, rather than timing them in
// one burst before it, lets the median see the same stretch of host
// time the throughputs do: the host switches between a fast and a slow
// state for a second or so at a time, and a burst of set-ups falls
// wholly into one of them.
const setupRepsPerRound = 5

// outcome is everything one invocation measured.
type outcome struct {
	Provenance provenance         `json:"provenance"`
	Rounds     int                `json:"rounds"`
	MeasuredS  float64            `json:"measured_s"`
	EndToEnd   endToEnd           `json:"end_to_end"`
	Layers     map[string]float64 `json:"per_layer,omitempty"`
	Present    map[string]bool    `json:"per_layer_present,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Guard      []string           `json:"guard,omitempty"`
	Engines    []string           `json:"engines"`
	Correct    bool               `json:"correct"`
	tr         *tracer
}

// measure sets the workload up, then runs it, setting it up again
// setupRepsPerRound times before each round; the rounds run on the
// first set-up. The end-to-end run measures rounds until seconds of
// timed host time have passed. The traced run measures half that
// untraced, replays the same rounds traced, and then runs the
// per-layer probes.
func measure(w workload, seed uint64, seconds time.Duration, traced bool) (*outcome, error) {
	var setups []time.Duration
	setUp := func() (*plan, error) {
		runtime.GC()
		start := time.Now()
		p, err := w.setup()
		setups = append(setups, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", w.name, err)
		}
		return p, nil
	}
	p, err := setUp()
	if err != nil {
		return nil, err
	}
	budget := seconds
	if traced {
		budget = seconds / 2
	}

	r := newRunner(seed, nil)
	r.sampleHeap = true
	r.beforeRound = func() error {
		for range setupRepsPerRound {
			if _, err := setUp(); err != nil {
				return err
			}
		}
		return nil
	}
	rounds, err := runRounds(p, r, budget, -1, 0)
	if err != nil {
		return nil, err
	}
	out := &outcome{Rounds: rounds, MeasuredS: r.measured.Seconds()}
	out.EndToEnd = computeEndToEnd(runTotals{setups: setups, rounds: r.rounds, durations: r.durations,
		attempted: r.attempted, failed: r.failed})
	out.Attempted, out.Failed, out.Failures = r.attempted, r.failed, r.failures
	out.Guard = r.guard(p.points)
	out.Engines = engineSummary(p.points)

	if traced {
		tr := newTracer()
		tp := p.resetTallies()
		rt := newRunner(seed, tr)
		root := tr.begin("bench.workload", 0)
		if _, err := runRounds(tp, rt, 0, rounds, root); err != nil {
			return nil, err
		}
		tr.end(root)
		out.Attempted += rt.attempted
		out.Failed += rt.failed
		out.Failures = append(out.Failures, rt.failures...)
		out.Guard = append(out.Guard, rt.guard(tp.points)...)
		layers, present, err := computeLayers(tp, rt, tr, r.measured, rt.measured)
		if err != nil {
			return nil, err
		}
		out.Layers, out.Present, out.tr = layers, present, tr
	}
	out.Correct = out.Failed == 0 && len(out.Guard) == 0 && out.Attempted > 0
	return out, nil
}

// runRounds runs rounds until the timed host time reaches budget, or
// exactly fixed rounds when fixed ≥ 0. It returns the rounds run.
func runRounds(p *plan, r *runner, budget time.Duration, fixed int, parent int32) (int, error) {
	for round := 0; ; round++ {
		if fixed >= 0 && round >= fixed {
			return round, nil
		}
		if r.beforeRound != nil {
			if err := r.beforeRound(); err != nil {
				return round, err
			}
		}
		var sp int32
		if r.tr != nil {
			sp = r.tr.begin("bench.round", parent)
		}
		completed, steps := r.attempted-r.failed, r.steps
		clear(r.heapSampled)
		r.heapPeak = 0
		d, err := p.round(r, round, sp)
		if r.tr != nil {
			r.tr.end(sp)
		}
		r.measured += d
		r.rounds = append(r.rounds, roundTotals{completed: int64(r.attempted - r.failed - completed), steps: r.steps - steps,
			measured: d, peakHeap: r.heapPeak})
		if err != nil {
			return round + 1, err
		}
		if fixed < 0 && r.measured >= budget {
			return round + 1, nil
		}
	}
}

// resetTallies clears p's per-point tallies for a second pass over
// the same inputs, and returns p.
func (p *plan) resetTallies() *plan {
	for _, pt := range p.points {
		pt.trials, pt.landings, pt.wallNS, pt.engines = 0, 0, 0, nil
	}
	return p
}

// report prints the human-readable result.
func (o *outcome) report(w io.Writer) {
	e := o.EndToEnd
	fmt.Fprintf(w, "rounds=%d measured=%.3fs attempted=%d failed=%d\n", o.Rounds, o.MeasuredS, o.Attempted, o.Failed)
	fmt.Fprintln(w, "end-to-end (tracing off):")
	fmt.Fprintf(w, "  %-14s %14.6g %-4s median of %d set-ups\n", "setup_s", e.SetupS, "s", e.Setups)
	fmt.Fprintf(w, "  %-14s %14.6g %-4s\n", "trials_per_s", e.TrialsPerS, "1/s")
	fmt.Fprintf(w, "  %-14s %14.6g %-4s\n", "steps_per_s", e.StepsPerS, "1/s")
	fmt.Fprintf(w, "  %-14s %14.6g %-4s over %d trials\n", "trial_p50_ms", e.P50Ms, "ms", e.Samples)
	note := ""
	if e.Beyond99 < minBeyond {
		note = fmt.Sprintf(" — fewer than %d samples beyond it (needs %d trials): an estimate, not a measured tail", minBeyond, samplesForTail(0.99))
	}
	fmt.Fprintf(w, "  %-14s %14.6g %-4s over %d trials, %d beyond%s\n", "trial_p99_ms", e.P99Ms, "ms", e.Samples, e.Beyond99, note)
	fmt.Fprintf(w, "  %-14s %14.6g %-4s\n", "peak_heap_mb", e.PeakHeapMB, "MB")
	fmt.Fprintf(w, "  %-14s %14.6g %-4s %d of %d trials\n", "failed_frac", e.FailedFrac, "frac", o.Failed, o.Attempted)
	fmt.Fprintln(w, "engines per point:")
	for _, s := range o.Engines {
		fmt.Fprintln(w, "  "+s)
	}
	for _, f := range o.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	for _, g := range o.Guard {
		fmt.Fprintln(w, "GUARD:", g)
	}
	if o.Layers != nil {
		reportLayers(w, o.Provenance.Workload, o.Layers, o.Present)
	}
}

// resultLine is the JSON object the last line of output carries.
func (o *outcome) resultLine(traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value)
	if traced {
		for _, m := range layerMetrics {
			ms[m.Name] = value{o.Layers[m.Name], m.Unit}
		}
	} else {
		vals := o.EndToEnd.values()
		for _, m := range e2eMetrics {
			ms[m.Name] = value{vals[m.Name], m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, ms})
}

// writeRecord stores the full outcome, provenance included.
func (o *outcome) writeRecord(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
