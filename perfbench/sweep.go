package main

import (
	"runtime"
	"time"

	"rentmin"
	"rentmin/internal/milp"
	"rentmin/internal/solve"
)

// traceCtx is what a traced run hands a workload: the span recorder and
// the per-layer accumulators. Untraced runs pass nil.
type traceCtx struct {
	tr  *tracer
	lay *layerStats
}

// bench is one set-up workload, ready to run.
type bench interface {
	// run measures until the deadline and until every question of a
	// pass was asked, recording every operation in rec; tc is nil for an
	// untraced run.
	run(deadline time.Time, rec *opLog, tc *traceCtx)
	// finish runs the checks that need the whole run (oracles, the
	// session replay) and records the LP relaxation bound of every
	// stateless question, recording failures in rec.
	finish(rec *opLog)
	// passKeys names the questions of one pass.
	passKeys() []string
	// probeItems are the instances the per-layer probes use.
	probeItems() []item
	close()
}

// answer is one solver answer in the form the certifier reads.
type answer struct {
	alloc    rentmin.Allocation
	bound    float64
	hasBound bool
	proven   bool
}

// closedLoop asks the items in order, one at a time and cycling, until
// the deadline has passed and every item has been asked at least once.
// ask performs (and may trace) one call; the loop times it, certifies
// the answer and records it.
func closedLoop(items []item, deadline time.Time, rec *opLog, ask func(item) (answer, error)) {
	var prevEnd time.Time
	for i := 0; i < len(items) || time.Now().Before(deadline); i++ {
		it := items[i%len(items)]
		t0 := time.Now()
		if !prevEnd.IsZero() {
			rec.lagged(t0.Sub(prevEnd))
		}
		a, err := ask(it)
		prevEnd = time.Now()
		lat := ms(prevEnd.Sub(t0))
		if err == nil {
			err = it.check(a.alloc, a.bound, a.hasBound, a.proven)
		}
		if err == nil {
			err = rec.answer(it.key, a.alloc.Cost, a.proven)
		}
		rec.done(lat, err)
	}
}

// recordMILP adds one solve's branch-and-bound counters.
func recordMILP(l *layerStats, nodes int, elapsed time.Duration, pivots, warmLP, lpSolves, cuts, reductions int) {
	l.ratio("milp.nodes_per_solve", float64(nodes), 1)
	l.ratio("milp.ns_per_node", float64(elapsed.Nanoseconds()), float64(nodes))
	l.ratio("milp.pivots_per_node", float64(pivots), float64(nodes))
	l.ratio("milp.warm_lp_share", float64(warmLP), float64(lpSolves))
	l.ratio("milp.cuts_per_solve", float64(cuts), 1)
	l.ratio("milp.presolve_reductions_per_solve", float64(reductions), 1)
}

func reductions(p rentmin.PresolveStats) int {
	return p.RowsRemoved + p.ColsFixed + p.BoundsTightened + p.CoeffsReduced
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// --- paper-sweep ---------------------------------------------------------------

// sweepBench calls rentmin.Solve with one worker on a fixed list of
// questions (paper-sweep, and the rentmin probe of the layer tour).
type sweepBench struct {
	items     []item
	timeLimit time.Duration
}

// One paper-sweep pass asks Table 3 and paperSweepFig3 Fig.3-scale
// instances, each at one of the paper's targets in turn. A pass takes
// most of a 20 s run, so a run asks each question about once and a
// seed's few slow instances weigh little against the rest. Rare instances
// take minutes to prove; sweepTimeLimit caps every solve (and is the
// workload's latency limit), so such an instance costs one capped,
// unproven answer instead of the run.
const (
	paperSweepFig3 = 1800
	sweepTimeLimit = 2 * time.Second
)

func newPaperSweep(seed uint64) (bench, error) {
	f3, err := familyItems(fig3Gen, seed, 'a', paperSweepFig3, paperTargets())
	if err != nil {
		return nil, err
	}
	b := &sweepBench{items: interleave(table3Items(), f3), timeLimit: sweepTimeLimit}
	b.warmUp()
	return b, nil
}

// warmUp answers Table 3 untimed so lazily built state (heap size, code
// paths) is in place before measuring; the same fixed questions for
// every seed keep set-up time comparable across seeds.
func (b *sweepBench) warmUp() {
	for _, it := range table3Items() {
		_, _ = b.ask(it, nil) // answers are certified in the timed run
	}
}

func (b *sweepBench) run(deadline time.Time, rec *opLog, tc *traceCtx) {
	closedLoop(b.items, deadline, rec, func(it item) (answer, error) { return b.ask(it, tc) })
}

func (b *sweepBench) ask(it item, tc *traceCtx) (answer, error) {
	opts := &rentmin.SolveOptions{Workers: 1, TimeLimit: b.timeLimit}
	if tc == nil {
		sol, err := rentmin.Solve(it.p, opts)
		return answer{sol.Alloc, sol.Bound, true, sol.Proven}, err
	}
	trace := tc.tr.newTrace()
	root := tc.tr.start(trace, 0, "op")
	defer tc.tr.end(root)
	var start time.Time
	firstRound := time.Duration(-1)
	opts.OnRound = func(rentmin.RoundInfo) {
		if firstRound < 0 {
			firstRound = time.Since(start)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := tc.tr.start(trace, root, "rentmin.Solve")
	start = time.Now()
	sol, err := rentmin.Solve(it.p, opts)
	wall := time.Since(start)
	tc.tr.end(sp)
	runtime.ReadMemStats(&m1)
	if err == nil {
		tc.lay.sample("rentmin.overhead_us", us(wall-sol.Elapsed))
		tc.lay.ratio("rentmin.allocs_per_solve", float64(m1.Mallocs-m0.Mallocs), 1)
		recordMILP(tc.lay, sol.Nodes, sol.Elapsed, sol.LPIterations, sol.WarmLPSolves, sol.LPSolves, sol.Cuts, reductions(sol.Presolve))
		if firstRound >= 0 {
			tc.lay.sample("milp.root_ms", ms(firstRound))
		}
	}
	return answer{sol.Alloc, sol.Bound, true, sol.Proven}, err
}

func (b *sweepBench) finish(rec *opLog) {
	if err := recordRefs(rec, b.items); err != nil {
		rec.fail(err)
	}
}
func (b *sweepBench) passKeys() []string { return itemKeys(b.items) }
func (b *sweepBench) probeItems() []item { return spread(b.items, 12) }
func (b *sweepBench) close()             {}

// --- deep-tree -----------------------------------------------------------------

// deepBench calls solve.ILP with one worker and a node cap on instances
// whose trees are deep enough that node LPs dominate.
type deepBench struct {
	items     []item
	nodeLimit int
}

// One deep-tree pass: Fig.8-scale instances at ρ=120 and large sparse
// instances at ρ=60, each solved under the same node cap. As in
// paper-sweep, a pass takes about a 20 s run. Every Fig.8-scale solve
// reaches the cap, and a capped solve still spends about nine tenths of
// its time below the root; most sparse instances are proven at the root.
// The median is therefore a quantile of the Fig.8-scale solve times, and
// how steady it is across seeds depends on how many of them a pass
// holds: at a 40-node cap a pass held 32 and latency_ms_p50 spread 0.17
// (interquartile range over median, seeds 1-5); a 20-node cap halves a
// solve and doubles the draws.
const (
	deepFig8      = 64
	deepSparse    = 16
	deepNodeLimit = 20
	deepFig8Rho   = 120
	deepSparseRho = 60
)

func newDeepTree(seed uint64) (bench, error) {
	f8, err := familyItems(fig8Gen, seed, 'c', deepFig8, []int{deepFig8Rho})
	if err != nil {
		return nil, err
	}
	sp, err := familyItems(sparseGen, seed, 'd', deepSparse, []int{deepSparseRho})
	if err != nil {
		return nil, err
	}
	b := &deepBench{items: interleave(f8, sp), nodeLimit: deepNodeLimit}
	for _, it := range table3Items() { // warm-up, as in paper-sweep
		_, _ = b.ask(it, nil)
	}
	return b, nil
}

func (b *deepBench) run(deadline time.Time, rec *opLog, tc *traceCtx) {
	closedLoop(b.items, deadline, rec, func(it item) (answer, error) { return b.ask(it, tc) })
}

func (b *deepBench) ask(it item, tc *traceCtx) (answer, error) {
	opts := &solve.ILPOptions{Workers: 1, NodeLimit: b.nodeLimit}
	if tc == nil {
		res, err := solve.ILP(it.m, it.p.Target, opts)
		return answer{res.Alloc, res.Bound, true, res.Proven}, err
	}
	trace := tc.tr.newTrace()
	root := tc.tr.start(trace, 0, "op")
	defer tc.tr.end(root)
	var start time.Time
	firstRound := time.Duration(-1)
	opts.OnRound = func(milp.RoundInfo) {
		if firstRound < 0 {
			firstRound = time.Since(start)
		}
	}
	sp := tc.tr.start(trace, root, "solve.ILP")
	start = time.Now()
	res, err := solve.ILP(it.m, it.p.Target, opts)
	tc.tr.end(sp)
	if err == nil {
		lpSolves := res.WarmLPSolves + res.ColdLPSolves
		recordMILP(tc.lay, res.Nodes, res.Elapsed, res.LPIterations, res.WarmLPSolves, lpSolves, res.Cuts, reductions(rentmin.PresolveStats(res.Presolve)))
		if firstRound >= 0 {
			tc.lay.sample("milp.root_ms", ms(firstRound))
		}
	}
	return answer{res.Alloc, res.Bound, true, res.Proven}, err
}

func (b *deepBench) finish(rec *opLog) {
	if err := recordRefs(rec, b.items); err != nil {
		rec.fail(err)
	}
}
func (b *deepBench) passKeys() []string { return itemKeys(b.items) }
func (b *deepBench) probeItems() []item { return b.items }
func (b *deepBench) close()             {}
