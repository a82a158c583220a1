package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// span is one timed call across a layer boundary. Times are
// nanoseconds since the tracer started; parent is 0 for the root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix: "core.Run" belongs to "core".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps the traced run's spans in memory, plus the aggregated
// timing of calls too frequent to keep one span each (detector checks,
// fault injections, sink events), which happen inside core.Run spans.
// Spans are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span

	detNS, detCalls atomic.Int64

	// Scenario-trace trials run sequentially, one traced sink and
	// injector at a time, so these need no synchronization.
	injectNS             int64
	sinkNS, sinkEvents   int64
	sinkInInjectNS       int64
	sinkBytes            int64
	realizeNS, realizes  int64
	replayNS, replayRecs int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: []span{{}}} // slot 0: no span
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id now.
func (t *tracer) end(id int32) {
	now := t.since(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, parent int32, start, end time.Time) int32 {
	s, e := t.since(start), t.since(end)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: s, End: e})
	return id
}

// wrapDetector times every Stable call; Gate and Trigger are kept, so
// the engines call Stable exactly as often as untraced.
func (t *tracer) wrapDetector(d core.Detector) core.Detector {
	inner := d.Stable
	if inner == nil {
		return d
	}
	d.Stable = func(cfg *core.Config) bool {
		start := time.Now()
		ok := inner(cfg)
		t.detNS.Add(time.Since(start).Nanoseconds())
		t.detCalls.Add(1)
		return ok
	}
	return d
}

// tracedSink times every event the NDJSON sink encodes.
type tracedSink struct {
	t        *tracer
	inner    *trace.NDJSON
	inInject bool
}

func (s *tracedSink) Event(ev *core.Event) {
	start := time.Now()
	s.inner.Event(ev)
	d := time.Since(start).Nanoseconds()
	s.t.sinkNS += d
	s.t.sinkEvents++
	if s.inInject {
		s.t.sinkInInjectNS += d
	}
}

// tracedInjector times the scenario layer's engine hook. Events the
// injector emits through the sink are timed by the sink as well and
// subtracted from the scenario layer's self time.
type tracedInjector struct {
	t     *tracer
	inner core.Injector
	sink  *tracedSink
}

func (w *tracedInjector) NextEvent(after int64) int64 {
	start := time.Now()
	next := w.inner.NextEvent(after)
	w.t.injectNS += time.Since(start).Nanoseconds()
	return next
}

func (w *tracedInjector) Inject(step int64, m *core.Mutator) {
	start := time.Now()
	w.sink.inInject = true
	w.inner.Inject(step, m)
	w.sink.inInject = false
	w.t.injectNS += time.Since(start).Nanoseconds()
}

// selfTimes returns each layer's self time in nanoseconds: a span's
// duration minus the part of its interval its child spans cover,
// summed per layer, with the aggregated detector, injector and sink
// time moved out of the core.Run spans that contain it.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	spans := slices.Clone(t.spans[1:])
	t.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		self[s.layer()] += s.End - s.Start - covered(s, children[s.ID])
	}
	nested := t.detNS.Load() + t.injectNS + t.sinkNS - t.sinkInInjectNS
	self["core"] -= nested
	self["protocols"] += t.detNS.Load()
	self["scenario"] += t.injectNS - t.sinkInInjectNS
	self["trace"] += t.sinkNS
	return self
}

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total, curA, curB int64
	curB = -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// write stores the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans[1:] {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
