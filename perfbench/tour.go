package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"rentmin/client"
	"rentmin/internal/lp"
	"rentmin/internal/solve"
)

// Sizes of the layer tour: the short runs that measure, for a traced
// run, the layers its workload does not reach.
const (
	tourSolveLimit = 250 * time.Millisecond // cap on one rentmin.Solve probe
	tourService    = 1500 * time.Millisecond
	tourFleet      = 1000 * time.Millisecond
	diveDepth      = 40
)

var (
	tourServiceCfg = serviceCfg{
		rate: 60, writeEvery: 3, sessions: 1, sessionGen: fig3Gen,
		readT3: 20, readFig3: 5,
	}
	tourFleetCfg = fleetCfg{fig3: 12, batch: 16}
)

// tour measures every per-layer metric the traced workload left empty,
// from the layers' public entry points, and returns the names it filled.
// The lp probes and the problem-hash probe always run on the workload's
// own instances: no workload calls those functions directly. Failures
// of the tour's answers are added to rec.
func tour(b bench, seed uint64, tc *traceCtx, rec *opLog) ([]string, error) {
	probe := &traceCtx{tr: tc.tr, lay: newLayerStats()}
	items := b.probeItems()
	if err := lpProbe(items, probe); err != nil {
		return nil, err
	}
	for _, it := range items {
		sp := tc.tr.start(tc.tr.newTrace(), 0, "client.ProblemHash")
		t0 := time.Now()
		if _, _, err := client.ProblemHash(it.p); err != nil {
			return nil, err
		}
		probe.lay.sample("client.problem_hash_us", us(time.Since(t0)))
		tc.tr.end(sp)
	}
	tourRec := newOpLog(time.Hour)
	if tc.lay.missing("milp.", "rentmin.") {
		sb := &sweepBench{items: items, timeLimit: tourSolveLimit}
		sb.run(time.Now(), tourRec, probe)
	}
	if tc.lay.missing("server.", "session.") {
		sv, err := newService(seed, tourServiceCfg)
		if err != nil {
			return nil, fmt.Errorf("service probe: %w", err)
		}
		sv.run(time.Now().Add(tourService), tourRec, probe)
		sv.finish(tourRec)
		sv.close()
	}
	if tc.lay.missing("pool.") {
		fb, err := newFleet(seed, tourFleetCfg)
		if err != nil {
			return nil, fmt.Errorf("fleet probe: %w", err)
		}
		fb.run(time.Now().Add(tourFleet), tourRec, probe)
		fb.close()
	}
	rec.mu.Lock()
	rec.attempted += tourRec.attempted
	rec.failed += tourRec.failed
	rec.problems = append(rec.problems, tourRec.problems...)
	rec.mu.Unlock()
	return tc.lay.adopt(probe.lay), nil
}

// lpProbe solves each item's root relaxation (solve.BuildMILP's LP) with
// lp.Solve, then replays one branching dive from it: each step caps the
// most fractional variable at its floor (or, when that is infeasible,
// raises it to its ceiling) and re-optimizes with lp.SolveFrom from the
// parent's basis, the one-bound patch branch and bound makes per node.
func lpProbe(items []item, tc *traceCtx) error {
	for _, it := range items {
		if it.p.Target <= 0 {
			continue
		}
		prob := solve.BuildMILP(it.m, it.p.Target)
		base := &prob.LP
		trace := tc.tr.newTrace()
		sp := tc.tr.start(trace, 0, "lp.Solve")
		t0 := time.Now()
		root, err := lp.Solve(base, nil)
		tc.lay.sample("lp.root_solve_ms", ms(time.Since(t0)))
		tc.tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: root LP: %w", it.key, err)
		}
		if root.Status != lp.Optimal || root.Basis == nil {
			continue
		}
		cur, q := root, base.Clone()
		for depth := 0; depth < diveDepth; depth++ {
			j := mostFractional(cur.X)
			if j < 0 {
				break // integral: the dive bottomed out
			}
			next, ok, err := diveStep(q, j, cur, tc, trace)
			if err != nil {
				return fmt.Errorf("%s: dive: %w", it.key, err)
			}
			if !ok {
				break
			}
			cur = next
		}
	}
	return nil
}

func mostFractional(x []float64) int {
	best, bestF := -1, 1e-6
	for j, v := range x {
		f := v - math.Floor(v)
		if f > 0.5 {
			f = 1 - f
		}
		if f > bestF {
			best, bestF = j, f
		}
	}
	return best
}

// diveStep tries the down branch of variable j, then the up branch,
// patching q's bounds in place, and returns the first optimal child.
func diveStep(q *lp.Problem, j int, cur lp.Solution, tc *traceCtx, trace uint64) (lp.Solution, bool, error) {
	lo, hi := q.LowerBound(j), q.UpperBound(j)
	for _, up := range []bool{false, true} {
		nlo, nhi := lo, math.Min(hi, math.Floor(cur.X[j]))
		if up {
			nlo, nhi = math.Max(lo, math.Ceil(cur.X[j])), hi
		}
		if nlo > nhi {
			continue
		}
		q.SetBounds(j, nlo, nhi)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := tc.tr.start(trace, 0, "lp.SolveFrom")
		t0 := time.Now()
		sol, err := lp.SolveFrom(q, cur.Basis, nil)
		dur := time.Since(t0)
		tc.tr.end(sp)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return lp.Solution{}, false, err
		}
		tc.lay.sample("lp.warm_resolve_us", us(dur))
		tc.lay.ratio("lp.pivots_per_resolve", float64(sol.Iterations), 1)
		tc.lay.ratio("lp.ns_per_pivot", float64(dur.Nanoseconds()), float64(sol.Iterations))
		tc.lay.ratio("lp.allocs_per_resolve", float64(m1.Mallocs-m0.Mallocs), 1)
		tc.lay.ratio("lp.warm_accept_share", b2f(sol.Warm), 1)
		if sol.Status == lp.Optimal && sol.Basis != nil {
			return sol, true, nil
		}
	}
	q.SetBounds(j, lo, hi)
	return lp.Solution{}, false, nil
}
