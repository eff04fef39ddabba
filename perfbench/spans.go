package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented).
type span struct {
	Trace  uint64 `json:"trace_id"`
	ID     int64  `json:"span_id"`
	Parent int64  `json:"parent_id,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// tracer is an in-memory span recorder. A nil *tracer records nothing,
// so untraced runs pay one nil check per call site. It is safe for
// concurrent use.
type tracer struct {
	t0     time.Time
	traces atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh trace ID for one operation; 0 when tracing is
// off.
func (t *tracer) newTrace() uint64 {
	if t == nil {
		return 0
	}
	return t.traces.Add(1)
}

// start opens a span and returns its ID (0 when tracing is off). Pass
// parent 0 for a root span.
func (t *tracer) start(trace uint64, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: int64(len(t.spans) + 1), Parent: parent, Name: name, Start: now})
	return int64(len(t.spans))
}

// end closes the span with the given ID.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// spanSummary is the per-name aggregate of a span set: how many, their
// total duration, and their self time (duration minus the part of it
// their child spans cover).
type spanSummary struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

// summarize aggregates the recorded spans by name, sorted by self time.
func (t *tracer) summarize() []spanSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	childNs := make(map[int64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	by := make(map[string]*spanSummary)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
		}
		dur := s.End - s.Start
		a.Count++
		a.TotalMs += float64(dur) / 1e6
		a.SelfMs += float64(dur-childNs[s.ID]) / 1e6
	}
	out := make([]spanSummary, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// write stores every span as one JSON array at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans dir: %w", err)
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
