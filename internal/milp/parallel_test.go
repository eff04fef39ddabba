package milp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"rentmin/internal/lp"
)

// workerCounts is the cross-validation grid: sequential, small pool, and a
// pool wider than most frontier batches (exercising idle workers).
var workerCounts = []int{1, 2, 8}

// hardCoverMILP builds an integer covering problem whose branch-and-bound
// tree is deep enough to keep a frontier of several nodes alive (no
// strong branching, fractional optimum far from integral points).
func hardCoverMILP(n int, seed int64) *Problem {
	r := rand.New(rand.NewSource(seed))
	p := &Problem{
		LP:      lp.Problem{Objective: make([]float64, n)},
		Integer: make([]bool, n),
	}
	rows := 3
	cons := make([][]float64, rows)
	for i := range cons {
		cons[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		p.LP.Objective[j] = float64(3 + r.Intn(17))
		p.Integer[j] = true
		for i := range cons {
			cons[i][j] = float64(1 + r.Intn(6))
		}
	}
	for i, row := range cons {
		p.LP.Constraints = append(p.LP.Constraints, lp.Constraint{
			Coeffs: row, Rel: lp.GE, RHS: float64(50+13*i) + 0.5,
		})
	}
	return p
}

// TestParallelWorkersAgreeOnOptimum is the core determinism contract:
// the same MILP solved with 1, 2 and 8 workers yields the identical
// optimal objective, and every fixed worker count is exactly reproducible
// run-to-run — same objective, same incumbent point, same node count —
// because expansions merge in a stable node order, independent of the
// goroutine schedule. (With multiple optima, different worker counts may
// legitimately report different optimal points: batching reorders
// candidate arrival.) Run with -race to make it a concurrency stress test
// as well.
func TestParallelWorkersAgreeOnOptimum(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		p := hardCoverMILP(9, seed)
		var ref Result
		for i, w := range workerCounts {
			res := solveOK(t, p, &Options{Workers: w})
			if res.Status != Optimal {
				t.Fatalf("seed %d workers %d: status %v", seed, w, res.Status)
			}
			if i == 0 {
				ref = res
			} else if math.Abs(res.Objective-ref.Objective) > 1e-9 {
				t.Errorf("seed %d: workers %d objective %g != workers %d objective %g",
					seed, w, res.Objective, workerCounts[0], ref.Objective)
			}
			// Run-to-run reproducibility at this worker count.
			again := solveOK(t, p, &Options{Workers: w})
			if again.Objective != res.Objective || again.Nodes != res.Nodes {
				t.Errorf("seed %d workers %d: rerun diverged: obj %g/%g nodes %d/%d",
					seed, w, res.Objective, again.Objective, res.Nodes, again.Nodes)
			}
			for j := range res.X {
				if res.X[j] != again.X[j] {
					t.Errorf("seed %d workers %d: rerun incumbent differs at %d: %v vs %v",
						seed, w, j, res.X, again.X)
					break
				}
			}
		}
	}
}

// TestParallelQuickAgainstBruteForce cross-validates every worker count
// (with every feature combination that changes the search shape) against
// brute force on random instances.
func TestParallelQuickAgainstBruteForce(t *testing.T) {
	rounder := func(x []float64) ([]float64, bool) {
		y := make([]float64, len(x))
		for i, v := range x {
			y[i] = math.Ceil(v - 1e-9)
		}
		return y, true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomCoverMILP(r)
		want := bruteForceCover(p)
		for _, w := range workerCounts {
			for _, opts := range []*Options{
				{Workers: w},
				{Workers: w, StrongBranch: 4},
				{Workers: w, IntegralObjective: true, Rounder: rounder},
			} {
				res, err := Solve(p, opts)
				if err != nil || res.Status != Optimal {
					return false
				}
				if math.Abs(res.Objective-want) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestParallelStress solves one instance many times concurrently with the
// full worker pool; under -race this exercises cross-solve isolation and
// the in-solve worker handoff at the same time.
func TestParallelStress(t *testing.T) {
	p := hardCoverMILP(8, 99)
	ref := solveOK(t, p, &Options{Workers: 1})
	if ref.Status != Optimal {
		t.Fatalf("reference status %v", ref.Status)
	}
	const solvers = 6
	errs := make(chan string, solvers)
	for g := 0; g < solvers; g++ {
		go func(w int) {
			res, err := Solve(p, &Options{Workers: w})
			switch {
			case err != nil:
				errs <- err.Error()
			case res.Status != Optimal:
				errs <- res.Status.String()
			case math.Abs(res.Objective-ref.Objective) > 1e-9:
				errs <- "objective mismatch"
			default:
				errs <- ""
			}
		}(1 + g%runtime.GOMAXPROCS(0))
	}
	for g := 0; g < solvers; g++ {
		if msg := <-errs; msg != "" {
			t.Errorf("concurrent solve failed: %s", msg)
		}
	}
}

// TestParallelNodeLimit verifies the node limit is exact under
// concurrency: popBatch caps the round size to the remaining budget.
func TestParallelNodeLimit(t *testing.T) {
	p := hardCoverMILP(10, 3)
	for _, w := range workerCounts {
		for _, limit := range []int{1, 3, 16} {
			res, err := Solve(p, &Options{Workers: w, NodeLimit: limit})
			if err != nil {
				t.Fatalf("workers %d limit %d: %v", w, limit, err)
			}
			if res.Nodes > limit {
				t.Errorf("workers %d: explored %d nodes despite NodeLimit %d", w, res.Nodes, limit)
			}
		}
	}
}

// TestParallelTimeLimit verifies the time limit stops a concurrent search
// promptly and still reports the warm-started incumbent.
func TestParallelTimeLimit(t *testing.T) {
	p := hardCoverMILP(14, 5)
	inc := make([]float64, 14)
	// Over-cover every constraint with the first variable alone.
	worst := 0.0
	for _, c := range p.LP.Constraints {
		if need := math.Ceil(c.RHS / c.Coeffs[0]); need > worst {
			worst = need
		}
	}
	inc[0] = worst
	for _, w := range workerCounts {
		start := time.Now()
		res, err := Solve(p, &Options{
			Workers:   w,
			TimeLimit: 20 * time.Millisecond,
			Incumbent: inc,
		})
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if res.Status != Feasible && res.Status != Optimal {
			t.Errorf("workers %d: status %v, want feasible-or-optimal with warm start", w, res.Status)
		}
		// Generous slack: a round of LP solves may straddle the deadline.
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("workers %d: solve ran %v past a 20ms limit", w, elapsed)
		}
		if res.Status == Feasible && res.Gap <= 0 {
			t.Errorf("workers %d: feasible result must report a positive gap", w)
		}
	}
}

// TestWorkerCountResolution pins the Options.Workers contract: 0 resolves
// to GOMAXPROCS, explicit values pass through.
func TestWorkerCountResolution(t *testing.T) {
	s := &solver{}
	if got, want := s.workerCount(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("nil opts: workerCount = %d, want GOMAXPROCS %d", got, want)
	}
	s.opts = &Options{Workers: 3}
	if got := s.workerCount(); got != 3 {
		t.Errorf("Workers 3: workerCount = %d", got)
	}
	s.opts = &Options{Workers: -1}
	if got, want := s.workerCount(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("negative Workers: workerCount = %d, want %d", got, want)
	}
}
