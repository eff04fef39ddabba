package main

import (
	"math"
	"strings"
	"sync"
)

// agg says how a per-layer metric is reduced from what the traced run
// recorded under its name.
type agg int

const (
	aggMedian agg = iota // median of the samples
	aggP99               // 0.99-quantile of the samples, under the tail rule
	aggRatio             // sum of numerators over sum of denominators
	aggValue             // a single value set once
)

// layerMetric is one per-layer metric: its name, unit and reduction,
// plus the end-to-end metric (and workload) it should move.
type layerMetric struct {
	name, unit string
	agg        agg
	moves      string
}

// perLayer lists the metrics a traced run reports. BENCHMARK.json at the
// repository root lists the same names.
var perLayer = []layerMetric{
	{"lp.root_solve_ms", "ms", aggMedian, "latency_ms_p50 on paper-sweep"},
	{"lp.warm_resolve_us", "us", aggMedian, "throughput_ops_s on deep-tree"},
	{"lp.pivots_per_resolve", "count", aggRatio, "throughput_ops_s on deep-tree"},
	{"lp.ns_per_pivot", "ns", aggRatio, "throughput_ops_s on deep-tree"},
	{"lp.allocs_per_resolve", "count", aggRatio, "peak_rss_mb; throughput_ops_s on deep-tree"},
	{"lp.warm_accept_share", "share", aggRatio, "throughput_ops_s on deep-tree"},
	{"milp.nodes_per_solve", "count", aggRatio, "throughput_ops_s on deep-tree"},
	{"milp.ns_per_node", "ns", aggRatio, "throughput_ops_s on deep-tree"},
	{"milp.pivots_per_node", "count", aggRatio, "throughput_ops_s on deep-tree"},
	{"milp.warm_lp_share", "share", aggRatio, "throughput_ops_s on deep-tree"},
	{"milp.root_ms", "ms", aggMedian, "latency_ms_p50 on paper-sweep"},
	{"milp.cuts_per_solve", "count", aggRatio, "latency_ms_p50 on paper-sweep and deep-tree"},
	{"milp.presolve_reductions_per_solve", "count", aggRatio, "latency_ms_p50 on paper-sweep and deep-tree"},
	{"rentmin.overhead_us", "us", aggMedian, "latency_ms_p50 on paper-sweep"},
	{"rentmin.allocs_per_solve", "count", aggRatio, "latency_ms_p50 on paper-sweep"},
	{"session.resolve_ms_p50", "ms", aggMedian, "service-mix tail latency"},
	{"session.apply_overhead_ms", "ms", aggMedian, "service-mix tail latency"},
	{"session.warm_share", "share", aggRatio, "service-mix tail latency and churn"},
	{"session.root_lp_warm_share", "share", aggRatio, "service-mix tail latency"},
	{"session.pivots_per_event", "count", aggRatio, "service-mix tail latency"},
	{"session.churn_per_event", "count", aggRatio, "plan stability on service-mix"},
	{"server.decode_ms", "ms", aggMedian, "latency_ms_p50 and goodput_rps on service-mix"},
	{"server.queue_wait_ms_p50", "ms", aggMedian, "goodput_rps on service-mix"},
	{"server.queue_wait_ms_p99", "ms", aggP99, "goodput_rps on service-mix"},
	{"server.queued_share", "share", aggRatio, "latency_ms_p50 and goodput_rps on service-mix"},
	{"server.overhead_ms", "ms", aggMedian, "latency_ms_p50 and goodput_rps on service-mix"},
	{"server.refused_share", "share", aggRatio, "goodput_rps on service-mix"},
	{"client.problem_hash_us", "us", aggMedian, "throughput_ops_s on fleet-batch"},
	{"pool.dispatch_rtt_ms_p50", "ms", aggValue, "latency_ms_p50 on fleet-batch"},
	{"pool.dispatch_rtt_ms_p99", "ms", aggValue, "latency_ms_p50 on fleet-batch"},
	{"pool.dispatch_overhead_ms", "ms", aggMedian, "throughput_ops_s on fleet-batch"},
	{"pool.fault_share", "share", aggRatio, "throughput_ops_s on fleet-batch"},
	{"pool.balance", "share", aggValue, "throughput_ops_s on fleet-batch"},
	{"pool.ref_hit_share", "share", aggRatio, "throughput_ops_s on fleet-batch"},
	{"loadgen.lag_ms_p99", "ms", aggP99, "validity of the run"},
	{"trace.overhead_share", "share", aggValue, "validity of the traced run"},
}

// layerStats accumulates per-layer measurements of a traced run. It is
// safe for concurrent use.
type layerStats struct {
	mu      sync.Mutex
	samples map[string][]float64
	ratios  map[string]*[2]float64
	values  map[string]float64
}

func newLayerStats() *layerStats {
	return &layerStats{
		samples: make(map[string][]float64),
		ratios:  make(map[string]*[2]float64),
		values:  make(map[string]float64),
	}
}

// sample adds one observation (aggMedian and aggP99 metrics). A nil
// *layerStats drops it, so untraced runs skip the bookkeeping.
func (l *layerStats) sample(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

// ratio adds num/den to an aggRatio metric.
func (l *layerStats) ratio(name string, num, den float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	r := l.ratios[name]
	if r == nil {
		r = new([2]float64)
		l.ratios[name] = r
	}
	r[0] += num
	r[1] += den
	l.mu.Unlock()
}

// set stores an aggValue metric.
func (l *layerStats) set(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.values[name] = v
	l.mu.Unlock()
}

// value reduces one metric; ok is false when nothing was recorded. q is
// the quantile reported for aggP99 metrics (lower than 0.99 when the run
// holds too few samples) and the sample count is returned for the
// printed summary.
func (l *layerStats) value(m layerMetric) (v, q float64, n int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch m.agg {
	case aggMedian:
		s := l.samples[m.name]
		if len(s) == 0 {
			return 0, 0, 0, false
		}
		return quantile(sortedCopy(s), 0.5), 0.5, len(s), true
	case aggP99:
		s := l.samples[m.name]
		if len(s) == 0 {
			return 0, 0, 0, false
		}
		v, q := tailQuantile(sortedCopy(s), 0.99)
		return v, q, len(s), true
	case aggRatio:
		r := l.ratios[m.name]
		if r == nil || r[1] == 0 {
			return 0, 0, 0, false
		}
		return r[0] / r[1], 0, int(r[1]), true
	default:
		v, ok := l.values[m.name]
		return v, 0, 1, ok && !math.IsNaN(v)
	}
}

func (l *layerStats) has(m layerMetric) bool {
	_, _, _, ok := l.value(m)
	return ok
}

// missing reports whether any metric with one of the given name
// prefixes has no measurement yet.
func (l *layerStats) missing(prefixes ...string) bool {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) && !l.has(m) {
				return true
			}
		}
	}
	return false
}

// adopt copies every metric this set lacks from other and returns the
// names it took.
func (l *layerStats) adopt(other *layerStats) []string {
	var took []string
	for _, m := range perLayer {
		if l.has(m) || !other.has(m) {
			continue
		}
		other.mu.Lock()
		s := append([]float64(nil), other.samples[m.name]...)
		r := other.ratios[m.name]
		v, vok := other.values[m.name]
		other.mu.Unlock()
		l.mu.Lock()
		if len(s) > 0 {
			l.samples[m.name] = s
		}
		if r != nil {
			rc := *r
			l.ratios[m.name] = &rc
		}
		if vok {
			l.values[m.name] = v
		}
		l.mu.Unlock()
		took = append(took, m.name)
	}
	return took
}
