package campaign

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/protocols"
)

func panicMetric(core.Result, int) float64 { panic("metric exploded") }

// TestPanicIsolation is the pool-survival acceptance: a point whose
// every trial panics becomes failed records — counted, labelled, and
// streamed like any others — while the healthy point beside it
// completes and Execute returns no error.
func TestPanicIsolation(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	points := []Point{
		{Protocol: "cycle-cover", N: 12, Trials: 4, BaseSeed: 1,
			Proto: cc.Proto, Detector: cc.Detector},
		{Protocol: "cycle-cover", N: 14, Trials: 4, BaseSeed: 1,
			Proto: cc.Proto, Detector: cc.Detector, Metric: panicMetric},
	}
	out, err := Execute(context.Background(), points, Options{Workers: 2, KeepRuns: true})
	if err != nil {
		t.Fatalf("recovered panics must not abort the campaign: %v", err)
	}
	healthy, broken := out.Aggregates[0], out.Aggregates[1]
	if healthy.Converged != 4 || healthy.Failures != 0 || healthy.Panics != 0 {
		t.Fatalf("healthy point disturbed: %+v", healthy)
	}
	if broken.Failures != 4 || broken.Panics != 4 || broken.Converged != 0 {
		t.Fatalf("panicking point misaggregated: %+v", broken)
	}
	for _, rec := range out.Runs {
		if rec.Point != 1 {
			continue
		}
		if !rec.Panicked || !strings.Contains(rec.Err, "panic: metric exploded") {
			t.Fatalf("panicking trial recorded as %+v", rec)
		}
	}
}

// TestPanicReplacesWorkspace pins the poisoning contract: a panicking
// attempt swaps a fresh workspace into the worker's slot, and a
// healthy follow-up run on that slot works and keeps it.
func TestPanicReplacesWorkspace(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	pt := Point{Protocol: "cycle-cover", N: 12, Trials: 2, BaseSeed: 1,
		Proto: cc.Proto, Detector: cc.Detector, Metric: panicMetric}

	ws := core.NewWorkspace()
	poisoned := ws
	rec, _ := runTrial(context.Background(), &pt, 0, 0, 0, RetryPolicy{}, &ws)
	if !rec.Panicked {
		t.Fatalf("record %+v, want panicked", rec)
	}
	if ws == nil || ws == poisoned {
		t.Fatal("poisoned workspace was not replaced")
	}

	pt.Metric = nil
	kept := ws
	rec, _ = runTrial(context.Background(), &pt, 0, 1, 0, RetryPolicy{}, &ws)
	if !rec.Converged || rec.Err != "" {
		t.Fatalf("healthy run on replaced workspace: %+v", rec)
	}
	if ws != kept {
		t.Fatal("healthy run replaced its workspace")
	}
}

// TestRetryTransientPanic: a trial that panics once and then succeeds
// is healed by a 2-attempt policy, and the record discloses the retry.
func TestRetryTransientPanic(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	var mu sync.Mutex
	calls := map[int]int{}
	pt := Point{Protocol: "cycle-cover", N: 12, Trials: 3, BaseSeed: 1,
		Proto: cc.Proto, Detector: cc.Detector,
		Initial: func(trial int) (*core.Config, error) {
			mu.Lock()
			calls[trial]++
			c := calls[trial]
			mu.Unlock()
			if trial == 1 && c == 1 {
				panic("transient glitch")
			}
			return nil, nil
		}}
	out, err := Execute(context.Background(), []Point{pt}, Options{
		Workers:  1,
		KeepRuns: true,
		Retry:    RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := out.Aggregates[0]
	if agg.Converged != 3 || agg.Failures != 0 || agg.Panics != 0 {
		t.Fatalf("retry did not heal the transient panic: %+v", agg)
	}
	for _, rec := range out.Runs {
		want := 0
		if rec.Trial == 1 {
			want = 2
		}
		if rec.Attempts != want {
			t.Fatalf("trial %d records %d attempts, want %d", rec.Trial, rec.Attempts, want)
		}
	}
}

// TestRetryDeterministicPanic: the same panic twice on the same seed
// is deterministic — the policy stops at two attempts no matter how
// many it is allowed, instead of hot-looping.
func TestRetryDeterministicPanic(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	pt := Point{Protocol: "cycle-cover", N: 12, Trials: 1, BaseSeed: 1,
		Proto: cc.Proto, Detector: cc.Detector, Metric: panicMetric}
	ws := core.NewWorkspace()
	rec, _ := runTrial(context.Background(), &pt, 0, 0, 0,
		RetryPolicy{MaxAttempts: 50, BaseBackoff: time.Microsecond}, &ws)
	if !rec.Panicked || rec.Attempts != 2 {
		t.Fatalf("record %+v, want the identical second panic terminal at 2 attempts", rec)
	}

	// Distinct panic messages stay transient: the policy runs them to
	// its attempt cap.
	n := 0
	pt.Metric = func(core.Result, int) float64 {
		n++
		panic(fmt.Sprintf("glitch %d", n))
	}
	rec, _ = runTrial(context.Background(), &pt, 0, 0, 0,
		RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond}, &ws)
	if !rec.Panicked || rec.Attempts != 3 {
		t.Fatalf("record %+v, want 3 attempts", rec)
	}

	// Plain errors are terminal on the first attempt regardless of the
	// policy.
	pt.Metric = nil
	pt.Initial = func(int) (*core.Config, error) { return nil, fmt.Errorf("bad input") }
	rec, _ = runTrial(context.Background(), &pt, 0, 0, 0,
		RetryPolicy{MaxAttempts: 50, BaseBackoff: time.Microsecond}, &ws)
	if rec.Err != "bad input" || rec.Panicked || rec.Attempts != 0 {
		t.Fatalf("record %+v, want a single-attempt plain error", rec)
	}
}

// TestRetryDeadline: the per-trial deadline bounds the attempt loop
// even when the attempt cap would allow more.
func TestRetryDeadline(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	n := 0
	pt := Point{Protocol: "cycle-cover", N: 12, Trials: 1, BaseSeed: 1,
		Proto: cc.Proto, Detector: cc.Detector,
		Metric: func(core.Result, int) float64 {
			n++
			panic(fmt.Sprintf("glitch %d", n))
		}}
	ws := core.NewWorkspace()
	rec, _ := runTrial(context.Background(), &pt, 0, 0, 0,
		RetryPolicy{MaxAttempts: 1000, BaseBackoff: 40 * time.Millisecond, Deadline: 60 * time.Millisecond}, &ws)
	if !rec.Panicked {
		t.Fatalf("record %+v", rec)
	}
	if rec.Attempts > 3 {
		t.Fatalf("deadline did not bound the loop: %d attempts", rec.Attempts)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	t.Parallel()
	p := RetryPolicy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: 400 * time.Millisecond}
	for retry, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 400 * time.Millisecond,
	} {
		if got := p.backoff(retry); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", retry, got, want)
		}
	}
	var zero RetryPolicy
	if zero.attempts() != 1 {
		t.Fatalf("zero policy allows %d attempts", zero.attempts())
	}
	if zero.backoff(0) != 100*time.Millisecond {
		t.Fatalf("zero policy base backoff %v", zero.backoff(0))
	}
	if zero.backoff(100) != 5*time.Second {
		t.Fatalf("zero policy backoff cap %v", zero.backoff(100))
	}
}
