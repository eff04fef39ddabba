package lp

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzSolveFrom hardens the basis snapshot/restore path: for a randomized
// base LP, snapshot the optimum, apply a fuzzer-chosen perturbation —
// patch one right-hand side, append one bound row, tighten one upper
// bound, or raise one lower bound (the last two are the bound patches
// branch and bound generates) — and re-optimize from the snapshot.
// SolveFrom must never panic, and whenever both the warm and the cold
// solver report Optimal they must agree on the objective and the warm
// point must be primal feasible and within bounds — the
// transparent-fallback contract.
//
// The kernels byte picks the snapshotting and restoring pivot kernels
// independently (1 bit each, overriding the row-count rule), so the fuzzer also drives every
// cross-kernel snapshot/restore combination through the neutral basis
// encoding.
func FuzzSolveFrom(f *testing.F) {
	f.Add(uint64(1), uint8(0), float64(3), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(2), float64(-2), uint8(1), uint8(1))
	f.Add(uint64(42), uint8(9), float64(0.5), uint8(2), uint8(2))
	f.Add(uint64(0xBEEF), uint8(255), float64(1e6), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, pick uint8, delta float64, mode uint8, kernels uint8) {
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			return
		}
		from, to := Kernel(kernels%2), Kernel((kernels>>1)%2)
		r := rand.New(rand.NewSource(int64(seed)))
		p := randomCoverLP(r, 2+r.Intn(6), 1+r.Intn(5))
		parent, err := solveKernel(p, nil, nil, from)
		if err != nil {
			t.Fatalf("base Solve: %v", err)
		}
		if parent.Status != Optimal || parent.Basis == nil {
			return
		}

		q := p.Clone()
		j := int(pick) % q.NumVars()
		switch mode % 4 {
		case 0: // patch one constraint right-hand side
			i := int(pick) % len(q.Constraints)
			q.Constraints[i].RHS += delta
		case 1: // append one bound row
			row := make([]float64, q.NumVars())
			row[j] = 1
			rel := LE
			if delta < 0 {
				rel = GE
			}
			q.Constraints = append(q.Constraints, Constraint{
				Coeffs: row, Rel: rel, RHS: math.Abs(delta),
			})
		case 2: // tighten the upper bound (down-branch shape)
			q.SetBounds(j, q.LowerBound(j), math.Max(q.LowerBound(j), math.Abs(delta)))
		case 3: // raise the lower bound (up-branch shape)
			lo := math.Abs(delta)
			hi := q.UpperBound(j)
			if lo > hi {
				lo = hi
			}
			q.SetBounds(j, lo, hi)
		}

		warm, err := solveKernel(q, parent.Basis, nil, to)
		if err != nil {
			t.Fatalf("SolveFrom: %v", err)
		}
		cold, err := solveKernel(q, nil, nil, to)
		if err != nil {
			t.Fatalf("cold Solve: %v", err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("warm status %v != cold status %v (seed=%d pick=%d delta=%g mode=%d)",
				warm.Status, cold.Status, seed, pick, delta, mode%4)
		}
		if warm.Status != Optimal {
			return
		}
		scale := 1 + math.Abs(cold.Objective)
		if math.Abs(warm.Objective-cold.Objective) > 1e-5*scale {
			t.Fatalf("warm objective %g != cold %g (seed=%d pick=%d delta=%g mode=%d)",
				warm.Objective, cold.Objective, seed, pick, delta, mode%4)
		}
		for j, v := range warm.X {
			if v < q.LowerBound(j)-1e-6 {
				t.Fatalf("warm X[%d] = %g below lower bound %g", j, v, q.LowerBound(j))
			}
			if hi := q.UpperBound(j); v > hi+1e-6 {
				t.Fatalf("warm X[%d] = %g above upper bound %g", j, v, hi)
			}
		}
		for i, c := range q.Constraints {
			dot := 0.0
			for j, a := range c.Coeffs {
				dot += a * warm.X[j]
			}
			slack := 1e-6 * (1 + math.Abs(c.RHS))
			switch c.Rel {
			case LE:
				if dot > c.RHS+slack {
					t.Fatalf("warm point violates row %d: %g > %g", i, dot, c.RHS)
				}
			case GE:
				if dot < c.RHS-slack {
					t.Fatalf("warm point violates row %d: %g < %g", i, dot, c.RHS)
				}
			case EQ:
				if math.Abs(dot-c.RHS) > slack {
					t.Fatalf("warm point violates row %d: %g != %g", i, dot, c.RHS)
				}
			}
		}
	})
}
