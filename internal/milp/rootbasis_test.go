package milp

import (
	"testing"

	"rentmin/internal/lp"
)

// rootBasisProblem is a small pure-integer covering instance with a
// fractional LP root, so the root relaxation genuinely runs.
func rootBasisProblem() *Problem {
	return &Problem{
		LP: lp.Problem{
			Objective: []float64{3, 2, 4},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 2, 1}, Rel: lp.GE, RHS: 7},
				{Coeffs: []float64{2, 1, 3}, Rel: lp.GE, RHS: 5},
			},
		},
		Integer: []bool{true, true, true},
	}
}

// A re-solve seeded with the previous solve's RootBasis must restore it
// (RootLPWarm), prove the same optimum, and hand back a basis of its own
// for the next link of the chain.
func TestRootBasisReuse(t *testing.T) {
	opts := &Options{}
	first := solveOK(t, rootBasisProblem(), opts)
	if first.Status != Optimal {
		t.Fatalf("first solve status = %v", first.Status)
	}
	if first.RootBasis == nil {
		t.Fatal("first solve returned no root basis")
	}
	if first.RootLPWarm {
		t.Error("first solve claims a warm root with no seed")
	}

	second := solveOK(t, rootBasisProblem(), &Options{RootBasis: first.RootBasis})
	if second.Status != Optimal || second.Objective != first.Objective {
		t.Fatalf("re-solve: status %v obj %g, want optimal %g", second.Status, second.Objective, first.Objective)
	}
	if !second.RootLPWarm {
		t.Error("re-solve did not restore the seeded root basis")
	}
	if second.RootBasis == nil {
		t.Error("re-solve returned no root basis of its own")
	}
}

// DisableWarmLP must ignore a root seed entirely.
func TestRootBasisSeedAndDisableWarm(t *testing.T) {
	first := solveOK(t, rootBasisProblem(), nil)
	seeded := solveOK(t, rootBasisProblem(), &Options{RootBasis: first.RootBasis})
	if seeded.Objective != first.Objective {
		t.Errorf("seeded objective %g != %g", seeded.Objective, first.Objective)
	}

	cold := solveOK(t, rootBasisProblem(), &Options{RootBasis: first.RootBasis, DisableWarmLP: true})
	if cold.RootLPWarm {
		t.Error("DisableWarmLP still warm-started the root")
	}
	if cold.Objective != first.Objective {
		t.Errorf("cold objective %g != %g", cold.Objective, first.Objective)
	}
}

// A basis from a differently-shaped problem must fall back cold, not fail.
func TestRootBasisShapeMismatchFallsBackCold(t *testing.T) {
	first := solveOK(t, rootBasisProblem(), nil)

	other := &Problem{
		LP: lp.Problem{
			Objective: []float64{1, 1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 2}, Rel: lp.GE, RHS: 3},
			},
		},
		Integer: []bool{true, true},
	}
	res := solveOK(t, other, &Options{RootBasis: first.RootBasis})
	wantOptimal(t, res, 2)
	if res.RootLPWarm {
		t.Error("shape-mismatched basis reported a warm root")
	}
}

// Result.LPKernel names the kernel package lp picked for the search's LP
// from its row count, and stays empty when presolve settles the solve
// without any LP.
func TestResultLPKernel(t *testing.T) {
	if got := solveOK(t, coverProblem(), nil).LPKernel; got != "dense" {
		t.Errorf("3-row cover: LPKernel %q, want dense", got)
	}
	wide := &Problem{LP: lp.Problem{Objective: []float64{1, 1}}, Integer: []bool{true, true}}
	for i := 1; i <= 13; i++ {
		wide.LP.Constraints = append(wide.LP.Constraints, lp.Constraint{Coeffs: []float64{1, 2}, Rel: lp.GE, RHS: float64(i) / 2})
	}
	res := solveOK(t, wide, nil)
	wantOptimal(t, res, 4) // binding row x0 + 2·x1 >= 6.5 needs x0 + x1 >= 4
	if res.LPKernel != "sparse" {
		t.Errorf("13-row problem: LPKernel %q, want sparse", res.LPKernel)
	}
	fixed := &Problem{
		LP: lp.Problem{
			Objective:   []float64{1, 1},
			Constraints: []lp.Constraint{{Coeffs: []float64{1, 1}, Rel: lp.GE, RHS: 4}},
			Lo:          []float64{2, 3},
			Hi:          []float64{2, 3},
		},
		Integer: []bool{true, true},
	}
	res = solveOK(t, fixed, &Options{Presolve: true})
	wantOptimal(t, res, 5)
	if res.LPKernel != "" {
		t.Errorf("presolve-settled solve: LPKernel %q, want empty", res.LPKernel)
	}
}
