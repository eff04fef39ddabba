// Package milp implements a branch-and-bound mixed-integer linear
// programming solver on top of the simplex solver in package lp. Together
// they stand in for the commercial ILP solver (Gurobi) used by the paper.
//
// Features used by the reproduction:
//
//   - best-bound node selection with most-fractional branching;
//   - optional warm start from a known feasible point (the paper-style
//     workflow seeds it with the best heuristic solution);
//   - an optional caller-supplied rounding repair that turns fractional LP
//     points into feasible incumbents at every node;
//   - integral-objective pruning: when every feasible objective value is
//     an integer, a node with LP bound 123.01 cannot beat an incumbent of
//     124 and is cut;
//   - wall-clock time limit with best-found reporting, reproducing the
//     paper's "ILP hits its 100 s budget" experiment (Fig. 8);
//   - dual-simplex LP warm starts over bound patches: a child's LP is its
//     parent's with one variable bound tightened (lp.Problem.Lo/Hi — the
//     bound lives in the simplex ratio test, never as a constraint row, so
//     the tableau stays m×n for the whole tree), and it re-optimizes from
//     the parent's optimal basis via lp.SolveFrom — most of the per-node
//     simplex work disappears on deep trees, with a transparent cold-solve
//     fallback whenever a restore is rejected (see Options.DisableWarmLP
//     to switch the path off). The basis travels as an opaque
//     lp.BasisSnapshot, so the search never touches simplex internals and
//     works unchanged over either LP pivot kernel (package lp picks one
//     from the LP's row count; Result.LPKernel reports it);
//   - parallel search: the best-bound frontier is expanded in rounds of
//     up to Options.Workers nodes, and every child LP relaxation of the
//     round — including all strong-branching candidates — solves
//     concurrently on a worker pool (see parallel.go). Results are merged
//     in a stable node order, so the reported optimal objective is
//     identical for every worker count.
package milp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"rentmin/internal/lp"
	"rentmin/internal/pool"
)

// Problem is a linear program plus integrality flags.
type Problem struct {
	LP lp.Problem
	// Integer[j] marks variable j as integer-constrained. Length must
	// equal the number of LP variables.
	Integer []bool
}

// Validate checks dimensions and delegates to the LP validation.
func (p *Problem) Validate() error {
	if err := p.LP.Validate(); err != nil {
		return err
	}
	if len(p.Integer) != p.LP.NumVars() {
		return fmt.Errorf("milp: %d integrality flags for %d variables", len(p.Integer), p.LP.NumVars())
	}
	return nil
}

// Status is the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	// Optimal means the incumbent is proven optimal.
	Optimal Status = iota
	// Feasible means a limit stopped the search with an incumbent in hand.
	Feasible
	// Infeasible means no integer point satisfies the constraints.
	Infeasible
	// Unbounded means the LP relaxation is unbounded.
	Unbounded
	// NoSolution means a limit stopped the search before any incumbent
	// was found.
	NoSolution
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NoSolution:
		return "no-solution"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Rounder attempts to repair a (fractional) LP point into an integer
// feasible point. It returns the candidate and true on success. The
// returned slice must not alias the input. When Options.Workers != 1 the
// rounder is invoked from multiple goroutines and must be safe for
// concurrent use (a pure function of its input, like solve.RoundingRepair,
// qualifies).
type Rounder func(x []float64) ([]float64, bool)

// Options tunes the search.
type Options struct {
	// TimeLimit bounds wall-clock time; zero means unlimited.
	TimeLimit time.Duration
	// NodeLimit bounds the number of explored nodes; zero means unlimited.
	NodeLimit int
	// IntegralObjective asserts that every integer-feasible point has an
	// integral objective value, enabling bound rounding.
	IntegralObjective bool
	// Incumbent optionally warm-starts the search with a feasible point.
	// It is validated; an invalid point is an error.
	Incumbent []float64
	// Rounder optionally repairs node LP relaxation points into feasible
	// incumbents.
	Rounder Rounder
	// IntTol is the integrality tolerance; zero means 1e-6.
	IntTol float64
	// Presolve runs the root reduction pass (bound tightening, fixing,
	// row/column elimination, coefficient reduction — see presolve.go)
	// before branch and bound, searching the reduced problem and lifting
	// the optimum back through the postsolve map. When an Incumbent is
	// supplied, its objective feeds presolve as a cutoff, which is what
	// gives the recipe model's default-bound formulation finite bounds to
	// propagate. The reported optimum is identical with and without
	// presolve.
	Presolve bool
	// StrongBranch evaluates both children of up to this many fractional
	// candidates at every node and branches on the variable whose worse
	// child has the highest bound. Zero disables strong branching
	// (most-fractional is used instead).
	StrongBranch int
	// Workers sets how many frontier nodes are expanded concurrently per
	// round. Zero uses GOMAXPROCS; 1 forces the classic sequential search.
	// The optimal objective is identical for every worker count, and any
	// fixed worker count is exactly reproducible run-to-run (expansions
	// merge in a stable node order, independent of goroutine scheduling).
	// When the problem has multiple optima, different worker counts may
	// report different optimal points. NodeLimit is honored exactly;
	// TimeLimit is checked between rounds.
	Workers int
	// DisableWarmLP forces a cold two-phase simplex solve at every node
	// instead of the default dual-simplex warm start from the parent's
	// optimal basis (ablation/debugging; the optimum is identical either
	// way, warm starts only change how many pivots reach it).
	DisableWarmLP bool
	// RootBasis optionally warm-starts the ROOT relaxation from a basis
	// snapshot taken by an earlier solve of a similar problem (online
	// re-optimization: a session hands the previous solve's Result.RootBasis
	// back in after mutating the problem). A snapshot that no longer fits
	// falls back to a cold solve transparently inside lp.SolveFrom.
	// Ignored under DisableWarmLP.
	RootBasis lp.BasisSnapshot
	// OnIncumbent, when set, is invoked every time the search accepts a
	// new incumbent, with its objective and point (the slice must not be
	// retained or modified). Calls happen on the coordinator goroutine in
	// deterministic order, including the initial Incumbent warm start.
	OnIncumbent func(obj float64, x []float64)
	// OnRound, when set, is invoked on the coordinator goroutine after
	// every frontier expansion round has merged, with a snapshot of the
	// search state. Like OnIncumbent the call order is deterministic for
	// a fixed worker count, and a nil hook costs a single pointer check
	// per round — nothing on the node-expansion hot path.
	OnRound func(RoundInfo)
}

// RoundInfo snapshots the branch-and-bound search at the end of one
// frontier expansion round, for Options.OnRound observers (the solve
// flight recorder, progress displays).
type RoundInfo struct {
	// Round is the 1-based expansion round index. With Workers == 1 each
	// round expands a single node; with Workers == w, up to w.
	Round int
	// Bound is the best proven global lower bound after the round.
	Bound float64
	// Incumbent is the incumbent objective, +Inf while none exists.
	Incumbent float64
	// HasIncumbent reports whether an integer-feasible point is known.
	HasIncumbent bool
	// Frontier is the number of open nodes after the round's merges.
	Frontier int
	// Nodes is the cumulative count of explored nodes.
	Nodes int
	// Elapsed is wall-clock time since the search started.
	Elapsed time.Duration
}

func (o *Options) intTol() float64 {
	if o == nil || o.IntTol == 0 {
		return 1e-6
	}
	return o.IntTol
}

// Result reports the outcome of a solve.
type Result struct {
	Status    Status
	X         []float64 // incumbent (valid for Optimal and Feasible)
	Objective float64   // incumbent objective
	Bound     float64   // proven lower bound on the optimum
	Nodes     int       // explored branch-and-bound nodes
	Elapsed   time.Duration
	// Presolve counts the root reductions applied (all zero when
	// Options.Presolve is off). It is computed on the coordinator before
	// the parallel search starts, so it is identical for every worker
	// count.
	Presolve PresolveStats
	// Gap is (Objective-Bound)/max(1,|Objective|); zero when optimal.
	Gap float64
	// LPIterations is the total number of simplex pivots across every
	// node LP solved during the search (including warm-start restore
	// pivots and speculative strong-branching children).
	LPIterations int
	// WarmLPSolves and ColdLPSolves split the node LP solves by path:
	// warm dual-simplex re-optimizations versus cold two-phase solves
	// (the root, warm-start rejections, and everything under
	// Options.DisableWarmLP).
	WarmLPSolves int
	ColdLPSolves int
	// WastedLPSolves counts speculative child LP solves that were
	// discarded because their parent node became prunable mid-round (a
	// sibling's incumbent improved after the parent was popped). This is
	// the parallel search's speculation waste; it is always zero when
	// Workers == 1 (the sequential search prunes at pop time and never
	// solves such children). The ratio WastedLPSolves/(WarmLPSolves+
	// ColdLPSolves) measures how much of the LP work parallelism threw
	// away.
	WastedLPSolves int
	// RootBasis is the root relaxation's optimal basis, for feeding a
	// later re-solve of a mutated problem via Options.RootBasis. Nil when
	// no root LP ran (presolve finished the solve outright, or the root
	// was infeasible/unbounded). The snapshot belongs to the problem the
	// tree actually searched — under presolve, the reduced problem — so a
	// restore onto a different shape simply falls back cold inside
	// lp.SolveFrom.
	RootBasis lp.BasisSnapshot
	// RootLPWarm reports whether the root relaxation really restored the
	// caller-supplied Options.RootBasis (false when it solved cold or the
	// restore was rejected and fell back).
	RootLPWarm bool
	// LPKernel names the pivot kernel ("dense" or "sparse") that package
	// lp picked for the LP the search ran: every node LP shares the
	// root's rows, so one kernel solves them all. Empty when no LP ran
	// (presolve finished the solve outright).
	LPKernel string
}

// node is one branch-and-bound subproblem, defined by variable bounds.
// Its LP shares the base problem's objective and constraint rows and
// carries the node's accumulated bound patches in prob.Lo/Hi — the
// tableau shape is m×n at every node of the tree. relax.Basis is the
// optimal basis its children re-optimize from with dual-simplex warm
// starts; a bound tightening never disturbs dual feasibility, so the
// parent basis is always a valid warm start for a child.
type node struct {
	prob  *lp.Problem // base objective/rows plus this node's bound patches
	relax lp.Solution
	bound float64
	seq   int
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].seq > h[j].seq // prefer deeper/newer nodes on ties (dives faster)
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Solve runs branch and bound.
func Solve(p *Problem, opts *Options) (Result, error) {
	return SolveContext(context.Background(), p, opts)
}

// SolveContext runs branch and bound under a context. Cancellation (or a
// context deadline) stops the search like a time limit does: workers skip
// the remaining child LP solves of the current round, the partially
// solved round is abandoned, and the best incumbent found so far is
// returned with Status Feasible (or NoSolution when none exists) and the
// tightest proven bound. Granularity: cancellation is observed before the
// root solve, before every child LP, and between merges — but not inside
// a single simplex solve, so the root relaxation finishes once started.
// The exact stopping point depends on when the cancellation lands, so —
// unlike a fixed worker count with no limits — a cancelled run is not
// reproducible.
func SolveContext(ctx context.Context, p *Problem, opts *Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	s := &solver{p: p, ctx: ctx, opts: opts, start: time.Now(), tol: opts.intTol()}
	return s.run()
}

type solver struct {
	p     *Problem
	work  *Problem // problem the tree searches: p, or its presolve reduction
	red   *Reduced // postsolve map (nil when presolve is off or reduced nothing)
	ctx   context.Context
	opts  *Options
	start time.Time
	tol   float64
	// objOff is the objective contribution of presolve-fixed variables;
	// node bounds are kept in original-objective units by adding it to
	// every reduced-space LP objective.
	objOff float64

	// The incumbent is written only by the coordinator (during merge, so
	// updates are deterministic); bestBits mirrors bestObj as atomic
	// float64 bits so pool workers can read the current bound lock-free
	// while filtering candidates mid-round.
	bestX    []float64
	bestObj  float64
	hasBest  bool
	bestBits atomic.Uint64

	// Worker pool for parallel node expansion (nil when Workers == 1).
	pool *pool.LocalPool

	// LP solve statistics, written from pool workers (atomics) and read
	// by the coordinator when it assembles the Result.
	lpIters atomic.Int64
	warmLP  atomic.Int64
	coldLP  atomic.Int64

	nodes    int
	presolve PresolveStats
	seq      int
	wasted   int // speculative child LP solves of mid-round-pruned nodes

	// Root relaxation outcome, exported for re-optimization chains.
	rootBasis lp.BasisSnapshot
	rootWarm  bool
	lpKernel  string
}

var errLimit = errors.New("milp: limit reached")

func (s *solver) run() (Result, error) {
	s.bestObj = math.Inf(1)
	s.bestBits.Store(math.Float64bits(s.bestObj))
	s.work = s.p

	if inc := s.optIncumbent(); inc != nil {
		obj, err := s.checkFeasible(inc)
		if err != nil {
			return Result{}, fmt.Errorf("milp: warm-start incumbent rejected: %w", err)
		}
		s.accept(inc, obj)
	}

	// An already-cancelled search must not pay for the root relaxation —
	// on large instances the root solve is the most expensive single LP
	// phase, and it runs as one uninterruptible block (no proven bound
	// exists yet, hence the -inf).
	if s.cancelled() {
		return s.limitResult(math.Inf(-1)), nil
	}

	if s.opts != nil && s.opts.Presolve {
		if res, done := s.runPresolve(); done {
			return res, nil
		}
	}
	root := &node{prob: &s.work.LP}
	var rootSeed lp.BasisSnapshot
	if s.opts != nil {
		rootSeed = s.opts.RootBasis
	}
	st, err := s.solveRelax(root, rootSeed)
	if err != nil {
		return Result{}, err
	}
	s.lpKernel = root.relax.Kernel.String()
	if st == lp.Optimal {
		s.rootBasis = root.relax.Basis
		s.rootWarm = root.relax.Warm
	}
	switch st {
	case lp.Unbounded:
		return s.result(Unbounded), nil
	case lp.Infeasible:
		if s.hasBest {
			// The warm start proved feasibility; an infeasible root
			// relaxation means the LP solver and the incumbent disagree.
			return Result{}, fmt.Errorf("milp: root relaxation reported %w despite a feasible warm start", lp.ErrInfeasible)
		}
		return s.result(Infeasible), nil
	case lp.IterLimit:
		return Result{}, fmt.Errorf("milp: root relaxation: %w", lp.ErrIterLimit)
	}

	h := &nodeHeap{}
	heap.Init(h)
	s.enqueue(h, root)

	workers := s.workerCount()
	if workers > 1 {
		s.pool = pool.New(workers)
		defer s.pool.Close()
	}

	lowest := root.bound // best proven global bound
	round := 0
	for h.Len() > 0 {
		if err := s.checkLimits(); err != nil {
			return s.limitResult(lowest), nil
		}
		batch := s.popBatch(h, workers)
		if len(batch) == 0 {
			// Heap minimum is prunable; best-bound order makes every
			// remaining node prunable too.
			break
		}
		lowest = batch[0].bound
		// finish counts the explored nodes: a node whose expansion is
		// dropped (pruned mid-round by a sibling's incumbent) was never
		// explored in the sequential sense.
		preps := s.prepareAll(batch)
		kids, solved := s.solveChildrenAll(preps)
		if s.cancelled() {
			// Cancellation landed mid-round: the child solves are
			// (possibly) partial, so merging them could prune on
			// incomplete information. Abandon the round — the popped
			// nodes stay unexplored and lowest is still the proven
			// global bound.
			return s.limitResult(lowest), nil
		}
		for i, p := range preps {
			if s.cancelled() {
				// Sequential path: children solve lazily inside finish,
				// so cancellation is re-checked between merges.
				return s.limitResult(lowest), nil
			}
			if kids == nil {
				s.finish(h, p, nil, 0)
			} else {
				s.finish(h, p, kids[i], solved[i])
			}
		}
		round++
		if s.opts != nil && s.opts.OnRound != nil {
			s.opts.OnRound(RoundInfo{
				Round:        round,
				Bound:        lowest,
				Incumbent:    s.bestObj,
				HasIncumbent: s.hasBest,
				Frontier:     h.Len(),
				Nodes:        s.nodes,
				Elapsed:      time.Since(s.start),
			})
		}
	}

	res := s.result(Optimal)
	if !s.hasBest {
		res.Status = Infeasible
	}
	res.Bound = res.Objective
	res.Gap = 0
	return res, nil
}

// runPresolve runs the root reduction pass and installs the reduced
// problem as the search target. It returns (result, true) when presolve
// finishes the solve outright: proven infeasibility, a cutoff-infeasible
// reduction (nothing beats the incumbent, which proves it optimal), or a
// fully fixed problem whose single candidate point settles the answer.
func (s *solver) runPresolve() (Result, bool) {
	cutoff := math.Inf(1)
	if s.hasBest {
		cutoff = s.bestObj
	}
	red := presolveWith(s.p, cutoff, s.tol)
	s.presolve = red.Stats
	if red.Infeasible {
		if s.hasBest {
			// The incumbent satisfies every constraint and the (non-strict)
			// cutoff, so infeasibility here proves no point improves on it.
			res := s.result(Optimal)
			res.Bound = res.Objective
			res.Gap = 0
			return res, true
		}
		return s.result(Infeasible), true
	}
	if red.P.LP.NumVars() == 0 {
		// Every variable was fixed: the reduction leaves exactly one
		// candidate point.
		x := red.Postsolve(nil)
		if obj, err := s.checkFeasible(x); err == nil && obj < s.bestObj-1e-9 {
			s.accept(x, obj)
		}
		if s.hasBest {
			res := s.result(Optimal)
			res.Bound = res.Objective
			res.Gap = 0
			return res, true
		}
		return s.result(Infeasible), true
	}
	if red.Stats.empty() {
		return Result{}, false // nothing reduced: search the original
	}
	s.red = red
	s.work = red.P
	s.objOff = red.ObjOffset
	return Result{}, false
}

// buildChild creates and solves one child of n with the extra bound
// lo <= x_j <= hi merged in. The child's LP is the parent's with the one
// variable bound tightened in place (objective and constraint rows are
// shared; only the bound slices are copied), and its relaxation is
// re-optimized from the parent's basis via the dual-simplex warm start.
// It returns nil when the child is empty, infeasible, or numerically
// unsolvable (all prunable).
func (s *solver) buildChild(n *node, j int, lo, hi float64) *node {
	if pl := n.prob.LowerBound(j); pl > lo {
		lo = pl
	}
	if ph := n.prob.UpperBound(j); ph < hi {
		hi = ph
	}
	if lo > hi {
		return nil
	}
	c := &node{prob: patchedBound(n.prob, j, lo, hi)}
	st, err := s.solveRelax(c, n.relax.Basis)
	if err != nil || st != lp.Optimal {
		return nil
	}
	return c
}

// patchedBound derives a child LP from its parent: the objective and the
// constraint rows are shared (immutable across the whole tree — the
// tableau never grows), and only the bound slice that actually changes
// is copied with entry j replaced; the untouched side stays shared with
// the parent (a down branch copies Hi only, so a tree that never raises
// a lower bound keeps Lo nil and the simplex skips the shift path
// entirely). Copying one n-sized slice is the entire per-node problem
// derivation; the bound ordering that the old bound-row scheme had to
// sort for determinism is gone, because bounds are positional.
func patchedBound(p *lp.Problem, j int, lo, hi float64) *lp.Problem {
	q := &lp.Problem{
		Objective:   p.Objective,
		Constraints: p.Constraints,
		Lo:          p.Lo,
		Hi:          p.Hi,
	}
	n := p.NumVars()
	if lo != p.LowerBound(j) {
		q.Lo = make([]float64, n)
		copy(q.Lo, p.Lo) // zero-filled when the parent has no explicit lows
		q.Lo[j] = lo
	}
	if hi != p.UpperBound(j) {
		q.Hi = make([]float64, n)
		if p.Hi != nil {
			copy(q.Hi, p.Hi)
		} else {
			for k := range q.Hi {
				q.Hi[k] = math.Inf(1)
			}
		}
		q.Hi[j] = hi
	}
	return q
}

func (s *solver) strongBranchLimit() int {
	if s.opts == nil {
		return 0
	}
	return s.opts.StrongBranch
}

// childScore is the worse (smaller) child bound; infeasible children count
// as +inf so that proving infeasibility ranks highest.
func childScore(down, up *node) float64 {
	score := math.Inf(1)
	if down != nil && down.bound < score {
		score = down.bound
	}
	if up != nil && up.bound < score {
		score = up.bound
	}
	return score
}

// fractionalCandidates returns up to k integer variables sorted by
// decreasing fractionality.
func (s *solver) fractionalCandidates(x []float64, k int) []int {
	type fv struct {
		j    int
		dist float64
	}
	var list []fv
	for j, isInt := range s.work.Integer {
		if !isInt {
			continue
		}
		f := x[j] - math.Floor(x[j])
		dist := math.Min(f, 1-f)
		if dist > s.tol {
			list = append(list, fv{j, dist})
		}
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].dist != list[b].dist {
			return list[a].dist > list[b].dist
		}
		return list[a].j < list[b].j
	})
	if len(list) > k {
		list = list[:k]
	}
	out := make([]int, len(list))
	for i, f := range list {
		out[i] = f.j
	}
	return out
}

// enqueue pushes a solved node unless its bound is already prunable.
func (s *solver) enqueue(h *nodeHeap, n *node) {
	if s.pruned(n.bound) {
		return
	}
	s.seq++
	n.seq = s.seq
	heap.Push(h, n)
}

// pruned reports whether a node with the given LP bound can be discarded
// given the current incumbent.
func (s *solver) pruned(bound float64) bool {
	if !s.hasBest {
		return false
	}
	if s.opts != nil && s.opts.IntegralObjective {
		bound = math.Ceil(bound - 1e-6)
	}
	return bound >= s.bestObj-1e-9
}

// solveRelax solves the LP relaxation of a node and stores bound/solution.
// With a basis in hand (and warm starts enabled) it re-optimizes via the
// dual simplex, falling back to a cold solve transparently inside
// lp.SolveFrom; with basis == nil (an unseeded root) it solves cold.
func (s *solver) solveRelax(n *node, basis lp.BasisSnapshot) (lp.Status, error) {
	if s.opts != nil && s.opts.DisableWarmLP {
		basis = nil
	}
	sol, err := lp.SolveFrom(n.prob, basis, nil)
	if err != nil {
		return 0, err
	}
	s.countLP(sol)
	n.relax = sol
	n.bound = sol.Objective + s.objOff
	return sol.Status, nil
}

// countLP folds one node LP solve into the search statistics. It runs on
// pool workers, hence the atomics.
func (s *solver) countLP(sol lp.Solution) {
	s.lpIters.Add(int64(sol.Iterations))
	if sol.Warm {
		s.warmLP.Add(1)
	} else {
		s.coldLP.Add(1)
	}
}

// fractionalVar returns the integer variable farthest from integrality,
// or -1 if the point is integral.
func (s *solver) fractionalVar(x []float64) int {
	best, bestDist := -1, s.tol
	for j, isInt := range s.work.Integer {
		if !isInt {
			continue
		}
		f := x[j] - math.Floor(x[j])
		dist := math.Min(f, 1-f)
		if dist > bestDist {
			best, bestDist = j, dist
		}
	}
	return best
}

// checkFeasible verifies integrality and constraints for a candidate and
// returns its objective.
func (s *solver) checkFeasible(x []float64) (float64, error) {
	if len(x) != s.p.LP.NumVars() {
		return 0, fmt.Errorf("candidate has %d variables, want %d", len(x), s.p.LP.NumVars())
	}
	for j, isInt := range s.p.Integer {
		if lo := s.p.LP.LowerBound(j); x[j] < lo-s.tol {
			return 0, fmt.Errorf("variable %d below its lower bound: %g < %g", j, x[j], lo)
		}
		if hi := s.p.LP.UpperBound(j); x[j] > hi+s.tol {
			return 0, fmt.Errorf("variable %d above its upper bound: %g > %g", j, x[j], hi)
		}
		if isInt {
			if d := math.Abs(x[j] - math.Round(x[j])); d > s.tol {
				return 0, fmt.Errorf("variable %d not integral: %g", j, x[j])
			}
		}
	}
	const tol = 1e-6
	for i, c := range s.p.LP.Constraints {
		dot := 0.0
		for j, a := range c.Coeffs {
			dot += a * x[j]
		}
		switch c.Rel {
		case lp.LE:
			if dot > c.RHS+tol {
				return 0, fmt.Errorf("constraint %d violated: %g > %g", i, dot, c.RHS)
			}
		case lp.GE:
			if dot < c.RHS-tol {
				return 0, fmt.Errorf("constraint %d violated: %g < %g", i, dot, c.RHS)
			}
		case lp.EQ:
			if math.Abs(dot-c.RHS) > tol {
				return 0, fmt.Errorf("constraint %d violated: %g != %g", i, dot, c.RHS)
			}
		}
	}
	obj := 0.0
	for j, c := range s.p.LP.Objective {
		obj += c * x[j]
	}
	return obj, nil
}

// accept installs a new incumbent. Only the coordinator calls it (during
// candidate merge), so plain writes are safe; the atomic mirror publishes
// the new bound to pool workers.
func (s *solver) accept(x []float64, obj float64) {
	s.bestX = x
	s.bestObj = obj
	s.hasBest = true
	s.bestBits.Store(math.Float64bits(obj))
	if s.opts != nil && s.opts.OnIncumbent != nil {
		s.opts.OnIncumbent(obj, x)
	}
}

// curBest returns the incumbent objective (+inf when none). Safe to call
// from pool workers.
func (s *solver) curBest() float64 {
	return math.Float64frombits(s.bestBits.Load())
}

func (s *solver) optIncumbent() []float64 {
	if s.opts == nil || s.opts.Incumbent == nil {
		return nil
	}
	return append([]float64(nil), s.opts.Incumbent...)
}

func (s *solver) checkLimits() error {
	if s.cancelled() {
		return errLimit
	}
	if s.opts == nil {
		return nil
	}
	if s.opts.NodeLimit > 0 && s.nodes >= s.opts.NodeLimit {
		return errLimit
	}
	if s.opts.TimeLimit > 0 && time.Since(s.start) >= s.opts.TimeLimit {
		return errLimit
	}
	return nil
}

// cancelled reports whether the solve context has been cancelled. It is
// safe on pool workers (ctx.Err is concurrency-safe) and sticky.
func (s *solver) cancelled() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// limitResult assembles the stop-at-limit result (time limit, node limit
// or context cancellation): the incumbent so far, Status Feasible or
// NoSolution, and the tightest proven bound given the open frontier.
func (s *solver) limitResult(lowest float64) Result {
	res := s.result(0)
	res.Bound = math.Min(lowest, res.Bound)
	if s.hasBest {
		res.Status = Feasible
	} else {
		res.Status = NoSolution
	}
	res.Gap = gap(res.Objective, res.Bound)
	return res
}

func (s *solver) result(st Status) Result {
	r := Result{
		Status:         st,
		Nodes:          s.nodes,
		Presolve:       s.presolve,
		Elapsed:        time.Since(s.start),
		LPIterations:   int(s.lpIters.Load()),
		WarmLPSolves:   int(s.warmLP.Load()),
		ColdLPSolves:   int(s.coldLP.Load()),
		WastedLPSolves: s.wasted,
		RootBasis:      s.rootBasis,
		RootLPWarm:     s.rootWarm,
		LPKernel:       s.lpKernel,
	}
	if s.hasBest {
		r.X = s.bestX
		r.Objective = s.bestObj
		r.Bound = s.bestObj
	} else {
		r.Objective = math.Inf(1)
		r.Bound = math.Inf(-1)
	}
	return r
}

func gap(obj, bound float64) float64 {
	if math.IsInf(obj, 1) || math.IsInf(bound, -1) {
		return math.Inf(1)
	}
	d := obj - bound
	if d <= 0 {
		return 0
	}
	return d / math.Max(1, math.Abs(obj))
}
