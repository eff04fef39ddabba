package milp_test

import (
	"testing"

	"rentmin/internal/core"
	"rentmin/internal/experiments"
	"rentmin/internal/graphgen"
	"rentmin/internal/milp"
	"rentmin/internal/rng"
	"rentmin/internal/solve"
)

// recipeSearch is a recipe MILP with the options solve.ILP gives it:
// strong branching over 8 candidates, integral-objective pruning, the
// rounding repair, presolve and the best single-graph incumbent.
type recipeSearch struct {
	p    *milp.Problem
	opts milp.Options
}

func newRecipeSearch(tb testing.TB, gen graphgen.Config, src *rng.Source, target, nodeLimit int) recipeSearch {
	tb.Helper()
	p, err := graphgen.Generate(gen, src)
	if err != nil {
		tb.Fatal(err)
	}
	m := core.NewCostModel(p)
	_, h1 := solve.BestSingleGraph(m, target)
	inc := make([]float64, m.J+m.Q)
	for j, r := range h1.GraphThroughput {
		inc[j] = float64(r)
	}
	for q, n := range h1.Machines {
		inc[m.J+q] = float64(n)
	}
	return recipeSearch{
		p: solve.BuildMILP(m, target),
		opts: milp.Options{
			NodeLimit:         nodeLimit,
			IntegralObjective: true,
			StrongBranch:      8,
			Rounder:           solve.RoundingRepair(m, target),
			Presolve:          true,
			Incumbent:         inc,
		},
	}
}

// fig8Search is the Fig. 8-scale instance of the root package's
// ILPWarmStart and ILPPresolve/fig8 benchmarks (target 120, 150 nodes).
func fig8Search(tb testing.TB) recipeSearch {
	return newRecipeSearch(tb, experiments.Fig8Setting(0).Gen, rng.New(0xF198).Sub('c', 3), 120, 150)
}

// largeSearch is the large sparse instance of ILPPresolve/large (120
// alternatives over 200 types, target 60, 40 nodes).
func largeSearch(tb testing.TB) recipeSearch {
	return newRecipeSearch(tb, graphgen.Config{
		NumGraphs: 120, MinTasks: 1, MaxTasks: 3,
		MutatePercent: 1.0, NumTypes: 200,
		CostMin: 1, CostMax: 100,
		ThroughputMin: 2, ThroughputMax: 12,
	}, rng.New(0x5BA2).Sub('c', 1), 60, 40)
}

// TestFig8SearchCounts pins the Fig. 8 search's work counters for one and
// two workers to the values recorded in BENCH_baseline.json (ILPWarmStart,
// ILPPresolve/fig8) before node LPs shared one model and restored each
// parent factorization once: the same tree, the same pivots, the same
// warm/cold split. Any drift in a node LP's pivots shows up here.
func TestFig8SearchCounts(t *testing.T) {
	s := fig8Search(t)
	for _, workers := range []int{1, 2} {
		opts := s.opts
		opts.Workers = workers
		res, err := milp.Solve(s.p, &opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != milp.Optimal || res.Nodes != 109 || res.LPIterations != 4026 ||
			res.WarmLPSolves != 1688 || res.ColdLPSolves != 1 {
			t.Errorf("workers %d: status %v, %d nodes, %d LP iterations, %d warm / %d cold LP solves; want optimal, 109, 4026, 1688 / 1",
				workers, res.Status, res.Nodes, res.LPIterations, res.WarmLPSolves, res.ColdLPSolves)
		}
	}
}

// BenchmarkNodes measures the branch-and-bound layer per explored node on
// the Fig. 8-scale and the large sparse instance, sequentially (one
// worker) so that every metric is reproducible: ns/node is wall clock per
// node, nodes/op and simplex-iters/op are the hardware-independent work.
func BenchmarkNodes(b *testing.B) {
	for _, c := range []struct {
		name   string
		search func(testing.TB) recipeSearch
	}{{"fig8", fig8Search}, {"large", largeSearch}} {
		b.Run(c.name, func(b *testing.B) {
			s := c.search(b)
			opts := s.opts
			opts.Workers = 1
			b.ReportAllocs()
			nodes, iters := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := milp.Solve(s.p, &opts)
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.Nodes
				iters += res.LPIterations
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/op")
		})
	}
}
