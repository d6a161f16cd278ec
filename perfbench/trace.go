package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/timing"
	"repro/internal/tol"
)

// span is one timed call into a layer: name is "<layer>.<operation>",
// job identifies the program or request it served, and parent links it
// to the span that caused it (0 = none). Times are offsets from the
// tracer's epoch.
type span struct {
	Name   string        `json:"name"`
	Job    string        `json:"job,omitempty"`
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory; they are written
// out once, when the run ends. A nil *tracer is the untraced run: every
// method is a no-op, so workloads share one code path.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has started but not yet ended.
type open struct {
	t      *tracer
	name   string
	job    string
	id     int64
	parent int64
	start  time.Duration
}

// start opens a span under parent (0 = root).
func (t *tracer) start(name, job string, parent int64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, name: name, job: job, id: t.ids.Add(1), parent: parent, start: time.Since(t.epoch)}
}

// end closes the span and records it.
func (o open) end() {
	if o.t == nil {
		return
	}
	s := span{Name: o.name, Job: o.job, ID: o.id, Parent: o.parent, Start: o.start, End: time.Since(o.t.epoch)}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
}

// addAll records spans collected locally by one goroutine.
func (t *tracer) addAll(ss []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ss := t.spans
	t.spans = nil
	return ss
}

// writeSpans stores spans as JSON lines.
func writeSpans(path string, ss []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range ss {
		if err := enc.Encode(&ss[i]); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// layerOf maps a span name to its layer (the part before the first dot).
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus, for each span, the part of its interval that its child
// spans cover. Children may nest further or overlap one another (two
// workers under one sweep); the covered part is the length of the
// union of their intervals, so nothing is counted twice.
func selfTimes(ss []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range ss {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range ss {
		self[layerOf(s.Name)] += s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the spans' intervals
// clipped to [lo, hi].
func covered(ss []span, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(ss))
	for _, s := range ss {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// totalOf sums the durations of the spans with the given name.
func totalOf(ss []span, name string) time.Duration {
	var d time.Duration
	for _, s := range ss {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// engineSource is the timing wrapper of the traced run: it hands the
// co-design engine to the timing simulator unchanged and records one
// "tol.engine" span, under the caller's timing span, per NextBatch
// call. Time inside NextBatch is engine time; the rest of RunContext is
// the timing simulator's own.
type engineSource struct {
	eng    *tol.Engine
	t      *tracer
	job    string
	parent int64
	spans  []span
}

// Next implements timing.StreamSource. The simulator prefers NextBatch;
// Next is traced the same way for completeness.
func (s *engineSource) Next(d *timing.DynInst) bool {
	start := time.Since(s.t.epoch)
	ok := s.eng.Next(d)
	s.record(start)
	return ok
}

// NextBatch implements timing.BatchSource.
func (s *engineSource) NextBatch(buf []timing.DynInst) int {
	start := time.Since(s.t.epoch)
	n := s.eng.NextBatch(buf)
	s.record(start)
	return n
}

func (s *engineSource) record(start time.Duration) {
	s.spans = append(s.spans, span{Name: "tol.engine", Job: s.job, ID: s.t.ids.Add(1), Parent: s.parent, Start: start, End: time.Since(s.t.epoch)})
}

// flush hands the collected spans to the tracer.
func (s *engineSource) flush() {
	s.t.addAll(s.spans)
	s.spans = nil
}
