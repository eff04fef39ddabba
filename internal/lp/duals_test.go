package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Known duals: min 10x+18y s.t. x+y >= 7, x >= 2. Optimum x=7: the
// coupling row is binding with shadow price 10 (one more unit of demand
// costs 10); the x >= 2 row is slack, price 0.
func TestDualsKnownValues(t *testing.T) {
	p := &Problem{
		Objective: []float64{10, 18},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: GE, RHS: 7},
			{Coeffs: []float64{1, 0}, Rel: GE, RHS: 2},
		},
	}
	forEachKernel(t, func(t *testing.T, solve func(*Problem) Solution) {
		sol := solve(p)
		if sol.Status != Optimal {
			t.Fatalf("status %v", sol.Status)
		}
		if math.Abs(sol.Duals[0]-10) > 1e-9 {
			t.Errorf("dual[0] = %g, want 10", sol.Duals[0])
		}
		if math.Abs(sol.Duals[1]) > 1e-9 {
			t.Errorf("dual[1] = %g, want 0 (non-binding)", sol.Duals[1])
		}
	})
}

// LE rows in a minimization get non-positive duals: tightening the
// capacity can only raise the cost.
func TestDualsSignsLE(t *testing.T) {
	// min -3x-5y (i.e. max 3x+5y) s.t. x<=4, 2y<=12, 3x+2y<=18.
	p := &Problem{
		Objective: []float64{-3, -5},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 4},
			{Coeffs: []float64{0, 2}, Rel: LE, RHS: 12},
			{Coeffs: []float64{3, 2}, Rel: LE, RHS: 18},
		},
	}
	forEachKernel(t, func(t *testing.T, solve func(*Problem) Solution) {
		sol := solve(p)
		for i, d := range sol.Duals {
			if d > 1e-9 {
				t.Errorf("dual[%d] = %g, want <= 0 for LE in a minimization", i, d)
			}
		}
		// Classic values: y = (0, -3/2, -1).
		want := []float64{0, -1.5, -1}
		for i := range want {
			if math.Abs(sol.Duals[i]-want[i]) > 1e-9 {
				t.Errorf("dual[%d] = %g, want %g", i, sol.Duals[i], want[i])
			}
		}
	})
}

// Shadow-price semantics: perturbing a binding RHS by eps moves the
// optimum by eps times the dual.
func TestDualsShadowPrice(t *testing.T) {
	base := &Problem{
		Objective: []float64{4, 9},
		Constraints: []Constraint{
			{Coeffs: []float64{2, 1}, Rel: GE, RHS: 10},
			{Coeffs: []float64{1, 3}, Rel: GE, RHS: 9},
		},
	}
	forEachKernel(t, func(t *testing.T, solve func(*Problem) Solution) {
		sol := solve(base)
		const eps = 1e-3
		for i := range base.Constraints {
			pert := base.Clone()
			pert.Constraints[i].RHS += eps
			psol := solve(pert)
			predicted := sol.Objective + eps*sol.Duals[i]
			if math.Abs(psol.Objective-predicted) > 1e-6 {
				t.Errorf("row %d: perturbed objective %g, dual predicts %g (dual %g)",
					i, psol.Objective, predicted, sol.Duals[i])
			}
		}
	})
}

// Duals of rows entered with a negative RHS (normalized internally) must
// still refer to the original row: -x <= -3 is x >= 3 with shadow price 1
// for objective x.
func TestDualsNormalizedRow(t *testing.T) {
	p := &Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{-1}, Rel: LE, RHS: -3},
		},
	}
	forEachKernel(t, func(t *testing.T, solve func(*Problem) Solution) {
		sol := solve(p)
		// dObj/dRHS: raising the original RHS (-3 -> -3+eps) relaxes x >= 3
		// to x >= 3-eps, lowering the optimum by eps: dual = -1.
		if math.Abs(sol.Duals[0]-(-1)) > 1e-9 {
			t.Errorf("dual = %g, want -1", sol.Duals[0])
		}
	})
}

// Property: strong duality b·y == objective and dual feasibility
// A^T y <= c on random covering LPs.
func TestQuickStrongDualityViaDuals(t *testing.T) {
	f := func(seed int64, sparse bool) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomCoveringLP(r)
		k := KernelDense
		if sparse {
			k = KernelSparse
		}
		sol, err := solveKernel(p, nil, nil, k)
		if err != nil || sol.Status != Optimal {
			return false
		}
		by := 0.0
		for i, c := range p.Constraints {
			if sol.Duals[i] < -1e-7 {
				return false // GE rows must have non-negative duals
			}
			by += c.RHS * sol.Duals[i]
		}
		if math.Abs(by-sol.Objective) > 1e-5 {
			return false
		}
		for j := 0; j < p.NumVars(); j++ {
			aty := 0.0
			for i, c := range p.Constraints {
				aty += c.Coeffs[j] * sol.Duals[i]
			}
			if aty > p.Objective[j]+1e-6 {
				return false // dual infeasible
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// forEachKernel runs body once per pivot kernel, as a subtest, with a
// solve function forced onto that kernel.
func forEachKernel(t *testing.T, body func(t *testing.T, solve func(*Problem) Solution)) {
	for _, k := range kernelsUnderTest() {
		t.Run(k.String(), func(t *testing.T) {
			body(t, func(p *Problem) Solution {
				t.Helper()
				sol, err := solveKernel(p, nil, nil, k)
				if err != nil {
					t.Fatalf("Solve on %v: %v", k, err)
				}
				return sol
			})
		})
	}
}
