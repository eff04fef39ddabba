package lp_test

import (
	"math"
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/experiments"
	"rentmin/internal/graphgen"
	"rentmin/internal/lp"
	"rentmin/internal/rng"
	"rentmin/internal/solve"
)

// BenchmarkWarmResolve measures one branch-and-bound child LP at the LP
// layer: the root relaxation of the Fig. 8-scale recipe MILP (target 120,
// the root package's ILPWarmStart instance) with its most fractional
// variable capped at its floor, re-optimized from the root's optimal
// basis. "solvefrom" is the one-shot lp.SolveFrom, which builds the model
// and factors the root basis on every call; "model" solves through one
// lp.Model, as a search does, so every call after the first shares the
// root basis's restore factorization. Both report simplex-iters/op and
// allocations.
func BenchmarkWarmResolve(b *testing.B) {
	p, err := graphgen.Generate(experiments.Fig8Setting(0).Gen, rng.New(0xF198).Sub('c', 3))
	if err != nil {
		b.Fatal(err)
	}
	base := &solve.BuildMILP(core.NewCostModel(p), 120).LP
	root, err := lp.Solve(base, nil)
	if err != nil || root.Status != lp.Optimal || root.Basis == nil {
		b.Fatalf("root LP: %v %v", err, root.Status)
	}
	j, dist := -1, 0.0
	for k, v := range root.X {
		if d := math.Abs(v - math.Round(v)); d > dist {
			j, dist = k, d
		}
	}
	if j < 0 {
		b.Fatal("integral root")
	}
	child := base.Clone()
	child.SetBounds(j, 0, math.Floor(root.X[j]))
	md, err := lp.NewModel(child)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		solve func() (lp.Solution, error)
	}{
		{"solvefrom", func() (lp.Solution, error) { return lp.SolveFrom(child, root.Basis, nil) }},
		{"model", func() (lp.Solution, error) { return md.SolveFrom(child.Lo, child.Hi, root.Basis, nil) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			iters := 0
			for i := 0; i < b.N; i++ {
				sol, err := c.solve()
				if err != nil || sol.Status != lp.Optimal || !sol.Warm {
					b.Fatalf("child LP: %v %v warm=%v", err, sol.Status, sol.Warm)
				}
				iters += sol.Iterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/op")
		})
	}
}
