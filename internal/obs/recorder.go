package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Point is one incumbent improvement in a solve's search trajectory.
type Point struct {
	At    time.Duration // offset from solve start
	Value float64       // incumbent objective (rental cost)
}

// RoundPoint snapshots the branch-and-bound search after one expansion
// round (see milp.RoundInfo, which it mirrors 1:1 plus a timestamp).
type RoundPoint struct {
	Round     int
	At        time.Duration
	Bound     float64
	Incumbent float64 // +Inf until the first incumbent
	Frontier  int
	Nodes     int
}

// SolveRecord is one entry of the per-daemon flight recorder: a solved
// (or failed) request with its attribution, timing split, solver work
// counters, and — when the search hooks were installed — the incumbent
// and bound trajectory.
type SolveRecord struct {
	TraceID  string
	Endpoint string // "solve" or "batch"
	Item     int    // batch item index, -1 for single solves
	Worker   string // answering remote worker ("" = solved in-process)
	Start    time.Time

	QueueWait time.Duration // admission to worker-lease acquisition
	Solve     time.Duration // lease acquisition to solver return

	Cost   int64
	Proven bool
	Err    string

	Nodes          int
	LPIterations   int
	LPSolves       int
	WarmLPSolves   int
	WastedLPSolves int
	LPKernel       string

	// Presolve reduction counters (flat ints — obs must not import the
	// solver packages).
	PresolveRows   int
	PresolveCols   int
	PresolveBounds int
	PresolveCoeffs int

	Incumbents []Point
	Rounds     []RoundPoint
	Spans      []SpanRecord
}

// Recorder is a fixed-size ring of the most recent SolveRecords. All
// methods are safe for concurrent use and safe on a nil receiver (a nil
// recorder drops everything), so callers never guard the disabled case.
type Recorder struct {
	mu    sync.Mutex
	ring  []SolveRecord
	next  int
	total int64
}

// NewRecorder returns a recorder keeping the last n records; n <= 0
// selects the default of 64.
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = 64
	}
	return &Recorder{ring: make([]SolveRecord, 0, n)}
}

// Add appends a record, evicting the oldest once the ring is full.
func (r *Recorder) Add(rec SolveRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, rec)
		return
	}
	r.ring[r.next] = rec
	r.next = (r.next + 1) % len(r.ring)
}

// Last returns up to n records, newest first. n <= 0 means all retained.
func (r *Recorder) Last(n int) []SolveRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > len(r.ring) {
		n = len(r.ring)
	}
	out := make([]SolveRecord, 0, n)
	// Newest element is at next-1 (the ring grows at next once full,
	// or at len(ring)-1 while filling).
	newest := len(r.ring) - 1
	if len(r.ring) == cap(r.ring) && r.total > int64(len(r.ring)) {
		newest = r.next - 1
		if newest < 0 {
			newest += len(r.ring)
		}
	}
	for i := 0; i < n; i++ {
		j := newest - i
		if j < 0 {
			j += len(r.ring)
		}
		out = append(out, r.ring[j])
	}
	return out
}

// Total is the number of records ever added, including evicted ones.
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Window is a sliding window of float64 observations with quantile
// estimation, backing the /metrics summaries (solve latency, queue
// wait, per-worker dispatch RTT). Safe for concurrent use.
type Window struct {
	mu   sync.Mutex
	buf  []float64
	next int
	n    int64
}

// NewWindow returns a window over the last size observations; size <= 0
// selects 1024.
func NewWindow(size int) *Window {
	if size <= 0 {
		size = 1024
	}
	return &Window{buf: make([]float64, 0, size)}
}

// Add records one observation.
func (w *Window) Add(v float64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n++
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, v)
		return
	}
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
}

// Count is the total number of observations ever added.
func (w *Window) Count() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Quantiles returns the requested quantiles (each in [0,1]) over the
// current window, or NaNs when the window is empty.
func (w *Window) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if w == nil {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	w.mu.Lock()
	vals := make([]float64, len(w.buf))
	copy(vals, w.buf)
	w.mu.Unlock()
	if len(vals) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sort.Float64s(vals)
	for i, q := range qs {
		idx := int(q * float64(len(vals)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(vals) {
			idx = len(vals) - 1
		}
		out[i] = vals[idx]
	}
	return out
}
