package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// minTail is the number of samples a percentile needs beyond it before
// it is reported.
const minTail = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// samples; NaN when there are none.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailOK reports whether n samples hold at least minTail samples beyond
// the nearest-rank q-quantile.
func tailOK(n int, q float64) bool {
	rank := int(math.Ceil(q * float64(n)))
	return n-rank >= minTail
}

// tailQuantile returns the q-quantile of sorted when the tail rule allows
// it; otherwise the highest quantile that still has minTail samples
// beyond it (the median when even that is out of reach). It also returns
// the quantile actually reported.
func tailQuantile(sorted []float64, q float64) (float64, float64) {
	n := len(sorted)
	if tailOK(n, q) || n == 0 {
		return quantile(sorted, q), q
	}
	used := float64(n-minTail) / float64(n)
	if used < 0.5 {
		used = 0.5
	}
	return quantile(sorted, used), used
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run reports, with their units.
// BENCHMARK.json at the repository root lists the same names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"goodput_rps", "1/s"},
	{"proven_share", "share"},
	{"rental_cost_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// opLog collects the outcome of every timed operation of one run. It is
// safe for concurrent use (the open loop records from many goroutines).
type opLog struct {
	mu        sync.Mutex
	limitMs   float64
	start     time.Time       // when the timed run began
	lat       []float64       // ms, one per completed operation
	doneAt    []time.Duration // completion times since start
	lag       []float64       // ms, how late the generator sent each operation
	attempted int64
	failed    int64
	good      int64 // succeeded within the latency limit
	churn     int64
	events    int64
	costs     map[string]int64   // first certified cost per pass key
	proved    map[string]bool    // whether that answer was proven optimal
	refs      map[string]float64 // LP relaxation bound per pass key
	problems  []string           // first few failure messages
}

func newOpLog(limit time.Duration) *opLog {
	return &opLog{
		start: time.Now(), limitMs: ms(limit),
		costs: make(map[string]int64), proved: make(map[string]bool), refs: make(map[string]float64),
	}
}

// done records one completed operation: its latency and whether it
// failed (a transport error, a refusal, or a failed certification).
func (o *opLog) done(latMs float64, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.lat = append(o.lat, latMs)
	o.doneAt = append(o.doneAt, time.Since(o.start))
	if err != nil {
		o.failed++
		o.noteLocked(err.Error())
		return
	}
	if latMs <= o.limitMs {
		o.good++
	}
}

func (o *opLog) lagged(d time.Duration) {
	o.mu.Lock()
	o.lag = append(o.lag, ms(d))
	o.mu.Unlock()
}

func (o *opLog) churned(moves int) {
	o.mu.Lock()
	o.churn += int64(moves)
	o.events++
	o.mu.Unlock()
}

// answer records the certified cost answered for a pass key and whether
// it was proven optimal. Every proven answer to the same question must
// have the same cost; a differing one is a failure. The first answer
// stays the pass's answer.
func (o *opLog) answer(key string, c int64, proven bool) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	prev, ok := o.costs[key]
	if ok && proven && o.proved[key] && prev != c {
		return fmt.Errorf("%s: proven cost %d differs from earlier proven answer %d", key, c, prev)
	}
	if !ok || (proven && !o.proved[key]) {
		o.costs[key] = c
		o.proved[key] = proven
	}
	return nil
}

// costOf returns the pass's answer to a key and whether it was proven.
func (o *opLog) costOf(key string) (cost int64, proven, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c, ok := o.costs[key]
	return c, o.proved[key], ok
}

// ref records the LP relaxation bound of a pass key.
func (o *opLog) ref(key string, bound float64) {
	o.mu.Lock()
	o.refs[key] = bound
	o.mu.Unlock()
}

// fail records a failure found after the operation was counted (the
// post-run session replay).
func (o *opLog) fail(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.failed++
	o.noteLocked(err.Error())
}

func (o *opLog) noteLocked(msg string) {
	if len(o.problems) < 10 {
		o.problems = append(o.problems, msg)
	}
}

// passStats summarizes one pass over a workload's questions.
type passStats struct {
	cost   int64 // certified costs summed
	proven int   // answers proven optimal
	// ratio is the summed cost of the questions with an LP relaxation
	// bound over the sum of those bounds.
	ratio float64
}

// pass summarizes one pass over keys; ok is false when some key was
// never answered or no key has an LP relaxation bound.
func (o *opLog) pass(keys []string) (passStats, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var ps passStats
	var cost, ref float64
	for _, k := range keys {
		c, found := o.costs[k]
		if !found {
			return passStats{}, false
		}
		ps.cost += c
		if o.proved[k] {
			ps.proven++
		}
		if r, ok := o.refs[k]; ok {
			cost += float64(c)
			ref += r
		}
	}
	if ref <= 0 {
		return passStats{}, false
	}
	ps.ratio = cost / ref
	return ps, true
}

// Throughput windows: up to maxWindows windows of at least
// minPerWindow consecutive completions each.
const (
	maxWindows   = 10
	minPerWindow = 100
)

// windowRate splits the run's completions into windows of consecutive
// ones and returns the median over the windows of completions per
// second, a rate that a burst of contention in part of the run does not
// move. A run with fewer than 2*minPerWindow completions is one window.
// Completions recorded at the same instant (the items of one batch) stay
// in one window: split between two, they would count in the second
// window although their time was spent in the first.
func (o *opLog) windowRate() float64 {
	o.mu.Lock()
	done := append([]time.Duration(nil), o.doneAt...)
	o.mu.Unlock()
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	windows := min(maxWindows, max(1, len(done)/minPerWindow))
	w := len(done) / windows
	var rates []float64
	var from time.Duration
	for start := 0; start+w <= len(done); {
		end := start + w
		for end < len(done) && done[end] == done[end-1] {
			end++
		}
		to := done[end-1]
		if to > from {
			rates = append(rates, float64(end-start)/(to-from).Seconds())
		}
		from, start = to, end
	}
	return median(rates)
}

// rssMB returns the process's resident set size in MiB, read from
// /proc/self/statm; where /proc is unavailable it falls back to the Go
// runtime's view of the memory obtained from the OS.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 2 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// rssPeak samples the resident set size every rssEvery until stop is
// called; stop returns the largest sample in MiB.
func rssPeak() (stop func() float64) {
	const rssEvery = 10 * time.Millisecond
	done := make(chan struct{})
	result := make(chan float64)
	go func() {
		peak := rssMB()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = math.Max(peak, rssMB())
			case <-done:
				result <- math.Max(peak, rssMB())
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}
