package solve

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"rentmin/internal/core"
	"rentmin/internal/lp"
	"rentmin/internal/milp"
)

// presolveEnvEnabled reads the RENTMIN_PRESOLVE environment variable: an
// explicit off value disables presolve process-wide (the CI test matrix
// uses it to run the whole suite with and without presolve); anything
// else, including unset, keeps the default on.
func presolveEnvEnabled() bool {
	switch strings.ToLower(os.Getenv("RENTMIN_PRESOLVE")) {
	case "0", "off", "false", "no":
		return false
	}
	return true
}

// ILPOptions tunes the integer-program path for the general shared-type
// case (Section V-C).
type ILPOptions struct {
	// TimeLimit bounds the branch-and-bound wall clock (the paper uses
	// 100 s in its Fig. 8 stress test). Zero means unlimited.
	TimeLimit time.Duration
	// NodeLimit bounds explored nodes; zero means unlimited.
	NodeLimit int
	// WarmStart optionally seeds the search with per-graph throughputs.
	// When nil the solver seeds itself with the best single-graph
	// solution (H1) unless DisableWarmStart is set.
	WarmStart []int
	// DisableWarmStart switches off self-seeding (ablation).
	DisableWarmStart bool
	// DisableRounding switches off the per-node rounding repair (ablation).
	DisableRounding bool
	// DisableIntegralPruning switches off integral-objective bound
	// rounding (ablation).
	DisableIntegralPruning bool
	// DisablePresolve switches off the root presolve pass (bound
	// tightening, fixing, row/column elimination, coefficient reduction —
	// see milp.Options.Presolve).
	// Presolve is on by default: it shrinks the tree before the first
	// pivot runs and the reported cost is identical either way. The
	// RENTMIN_PRESOLVE environment variable ("0"/"off"/"false"/"no")
	// disables it process-wide for CI matrix runs and ablation.
	DisablePresolve bool
	// DisableStrongBranch falls back to most-fractional branching
	// (ablation).
	DisableStrongBranch bool
	// Workers sets branch-and-bound parallelism: frontier nodes expanded
	// concurrently per round (0 = GOMAXPROCS, 1 = sequential). The optimal
	// cost is identical for every worker count; see milp.Options.Workers.
	Workers int
	// DisableLPWarmStart forces a cold two-phase simplex solve at every
	// branch-and-bound node instead of the default dual-simplex
	// re-optimization from the parent basis (ablation; identical optimal
	// costs, more simplex pivots). Distinct from WarmStart, which seeds
	// the incumbent, not the per-node LP solves.
	DisableLPWarmStart bool
	// OnIncumbent, when set, observes every incumbent the search
	// accepts, with its total rental cost. Calls happen on the search
	// coordinator goroutine in deterministic order (observability hook;
	// a nil hook costs nothing).
	OnIncumbent func(cost float64)
	// OnRound, when set, observes the branch-and-bound state after every
	// frontier expansion round (observability hook; see milp.RoundInfo).
	OnRound func(milp.RoundInfo)
	// RootBasis warm-starts the root relaxation from a prior solve's
	// ILPResult.RootBasis (online re-optimization; see milp.Options.RootBasis).
	// A snapshot that no longer fits the mutated problem falls back to a
	// cold root solve transparently.
	RootBasis lp.BasisSnapshot
}

// ILPResult is the outcome of the integer-programming solve.
type ILPResult struct {
	Alloc core.Allocation
	// Proven is true when the allocation is proven optimal.
	Proven bool
	Status milp.Status
	Bound  float64 // proven lower bound on the optimal cost
	Nodes  int
	// Cuts is always 0: the solver adds no cutting planes. The field is
	// kept for callers that still read it.
	Cuts    int
	Elapsed time.Duration
	Gap     float64
	// Presolve counts the root reductions applied (all zero when presolve
	// is disabled).
	Presolve milp.PresolveStats
	// LPIterations counts simplex pivots across all node LP solves;
	// WarmLPSolves/ColdLPSolves split those solves by warm-start path.
	LPIterations int
	WarmLPSolves int
	ColdLPSolves int
	// WastedLPSolves counts speculative child LP solves discarded because
	// their parent node was pruned mid-round (parallel search only; see
	// milp.Result.WastedLPSolves).
	WastedLPSolves int
	// RootBasis is the root relaxation's optimal basis, reusable as
	// ILPOptions.RootBasis by a later re-solve of a mutated problem (nil
	// when no root LP ran — e.g. presolve finished the solve outright).
	RootBasis lp.BasisSnapshot
	// RootLPWarm reports whether the root LP actually restored the
	// caller-supplied RootBasis instead of solving cold.
	RootLPWarm bool
	// LPKernel names the simplex kernel ("dense" or "sparse") that solved
	// the search's LP relaxations, picked by package lp from the row
	// count of the LP the search ran (after presolve). Empty when no LP
	// ran.
	LPKernel string
}

// BuildMILP encodes Definition 1 with shared task types as the MIP of
// Section V-C. Variables are ordered [ρ_0..ρ_{J-1}, x_0..x_{Q-1}]:
//
//	minimize    Σ_q c_q·x_q
//	subject to  Σ_j ρ_j >= target
//	            r_q·x_q - Σ_j n_jq·ρ_j >= 0    for every type q
//	            ρ_j, x_q >= 0 integer
func BuildMILP(m *core.CostModel, target int) *milp.Problem {
	nv := m.J + m.Q
	p := &milp.Problem{Integer: make([]bool, nv)}
	for i := range p.Integer {
		p.Integer[i] = true
	}
	p.LP.Objective = make([]float64, nv)
	for q := 0; q < m.Q; q++ {
		p.LP.Objective[m.J+q] = float64(m.C[q])
	}
	total := make([]float64, nv)
	for j := 0; j < m.J; j++ {
		total[j] = 1
	}
	p.LP.Constraints = append(p.LP.Constraints, lp.Constraint{Coeffs: total, Rel: lp.GE, RHS: float64(target)})
	for q := 0; q < m.Q; q++ {
		row := make([]float64, nv)
		for j := 0; j < m.J; j++ {
			row[j] = -float64(m.N[j][q])
		}
		row[m.J+q] = float64(m.R[q])
		p.LP.Constraints = append(p.LP.Constraints, lp.Constraint{Coeffs: row, Rel: lp.GE, RHS: 0})
	}
	return p
}

// RoundingRepair returns a milp.Rounder that turns a fractional relaxation
// point into a feasible integer point: graph throughputs are floored, the
// lost units are re-added one by one to the graph with the smallest
// marginal cost, and machine counts are recomputed as exact ceilings.
func RoundingRepair(m *core.CostModel, target int) milp.Rounder {
	return func(x []float64) ([]float64, bool) {
		rho := make([]int, m.J)
		sum := 0
		for j := 0; j < m.J; j++ {
			v := int(math.Floor(x[j] + 1e-9))
			if v < 0 {
				v = 0
			}
			rho[j] = v
			sum += v
		}
		demand := make([]int64, m.Q)
		for sum < target {
			bestJ, bestDelta := -1, int64(math.MaxInt64)
			base := m.CostInto(rho, demand)
			for j := 0; j < m.J; j++ {
				rho[j]++
				if d := m.CostInto(rho, demand) - base; d < bestDelta {
					bestJ, bestDelta = j, d
				}
				rho[j]--
			}
			rho[bestJ]++
			sum++
		}
		a := m.NewAllocation(rho)
		out := make([]float64, m.J+m.Q)
		for j, r := range rho {
			out[j] = float64(r)
		}
		for q, n := range a.Machines {
			out[m.J+q] = float64(n)
		}
		return out, true
	}
}

// allocationToPoint encodes an allocation as a MILP variable vector.
func allocationToPoint(m *core.CostModel, a core.Allocation) []float64 {
	out := make([]float64, m.J+m.Q)
	for j, r := range a.GraphThroughput {
		out[j] = float64(r)
	}
	for q, n := range a.Machines {
		out[m.J+q] = float64(n)
	}
	return out
}

// ILP solves the general shared-type problem exactly (or best-effort under
// a time limit) via branch and bound.
func ILP(m *core.CostModel, target int, opts *ILPOptions) (ILPResult, error) {
	return ILPContext(context.Background(), m, target, opts)
}

// ILPContext is ILP under a context: cancellation (or a context deadline)
// stops the branch-and-bound search mid-round and returns the best
// incumbent found so far with Proven == false, exactly like a TimeLimit
// stop. A search cancelled before any incumbent exists reports Status
// NoSolution with a nil allocation.
func ILPContext(ctx context.Context, m *core.CostModel, target int, opts *ILPOptions) (ILPResult, error) {
	if opts == nil {
		opts = &ILPOptions{}
	}
	if target <= 0 {
		a := m.NewAllocation(make([]int, m.J))
		return ILPResult{Alloc: a, Proven: true, Status: milp.Optimal}, nil
	}
	prob := BuildMILP(m, target)

	mopts := &milp.Options{
		TimeLimit:         opts.TimeLimit,
		NodeLimit:         opts.NodeLimit,
		IntegralObjective: !opts.DisableIntegralPruning,
		Workers:           opts.Workers,
		DisableWarmLP:     opts.DisableLPWarmStart,
	}
	if cb := opts.OnIncumbent; cb != nil {
		mopts.OnIncumbent = func(obj float64, _ []float64) { cb(obj) }
	}
	mopts.OnRound = opts.OnRound
	if !opts.DisableStrongBranch {
		mopts.StrongBranch = 8
	}
	if !opts.DisableRounding {
		mopts.Rounder = RoundingRepair(m, target)
	}
	mopts.Presolve = !opts.DisablePresolve && presolveEnvEnabled()
	mopts.RootBasis = opts.RootBasis
	switch {
	case opts.WarmStart != nil:
		if len(opts.WarmStart) != m.J {
			return ILPResult{}, fmt.Errorf("solve: warm start has %d throughputs, want %d", len(opts.WarmStart), m.J)
		}
		mopts.Incumbent = allocationToPoint(m, m.NewAllocation(opts.WarmStart))
	case !opts.DisableWarmStart:
		_, h1 := BestSingleGraph(m, target)
		mopts.Incumbent = allocationToPoint(m, h1)
	}

	res, err := milp.SolveContext(ctx, prob, mopts)
	if err != nil {
		return ILPResult{}, err
	}
	out := ILPResult{
		Status:         res.Status,
		Bound:          res.Bound,
		Nodes:          res.Nodes,
		Presolve:       res.Presolve,
		Elapsed:        res.Elapsed,
		Gap:            res.Gap,
		Proven:         res.Status == milp.Optimal,
		LPIterations:   res.LPIterations,
		WarmLPSolves:   res.WarmLPSolves,
		ColdLPSolves:   res.ColdLPSolves,
		WastedLPSolves: res.WastedLPSolves,
		RootBasis:      res.RootBasis,
		RootLPWarm:     res.RootLPWarm,
		LPKernel:       res.LPKernel,
	}
	if res.Status == milp.Optimal || res.Status == milp.Feasible {
		rho := make([]int, m.J)
		for j := 0; j < m.J; j++ {
			rho[j] = int(math.Round(res.X[j]))
		}
		out.Alloc = m.NewAllocation(rho)
	}
	return out, nil
}
