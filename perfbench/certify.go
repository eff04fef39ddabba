package main

import (
	"fmt"
	"math"
	"time"

	"rentmin"
	"rentmin/internal/lp"
	"rentmin/internal/solve"
)

// certify checks one answer from outside the solver: the allocation must
// meet p's target with enough machines per type (core.CostModel's
// CheckFeasible), its cost recomputed in integer arithmetic from the
// machine counts and p's prices must equal the reported cost, and when a
// bound is reported it must not exceed the cost and, for a proven
// answer, round up to it.
func certify(p *rentmin.Problem, m *rentmin.CostModel, a rentmin.Allocation, bound float64, hasBound, proven bool) error {
	if err := m.CheckFeasible(a, p.Target); err != nil {
		return fmt.Errorf("infeasible answer: %w", err)
	}
	var cost int64
	for q, n := range a.Machines {
		cost += int64(n) * int64(p.Platform.Machines[q].Cost)
	}
	if cost != a.Cost {
		return fmt.Errorf("reported cost %d, machines cost %d", a.Cost, cost)
	}
	if !hasBound {
		return nil
	}
	const tol = 1e-6
	if bound > float64(cost)+tol {
		return fmt.Errorf("bound %.6f above cost %d", bound, cost)
	}
	if proven && int64(math.Ceil(bound-tol)) != cost {
		return fmt.Errorf("proven answer with cost %d but bound %.6f", cost, bound)
	}
	return nil
}

// certifyLive checks what a session answer must also respect beyond the
// full problem: no machine of an offline type is rented, and no
// throughput goes through a graph the outage excluded. live lists the
// graph indices of the session's effective problem, ascending.
func certifyLive(a rentmin.Allocation, offline, live []int) error {
	for _, q := range offline {
		if q < len(a.Machines) && a.Machines[q] != 0 {
			return fmt.Errorf("rents %d machines of offline type %d", a.Machines[q], q)
		}
	}
	k := 0
	for j, r := range a.GraphThroughput {
		if k < len(live) && live[k] == j {
			k++
			continue
		}
		if r != 0 {
			return fmt.Errorf("routes %d through graph %d, excluded by an outage", r, j)
		}
	}
	return nil
}

// agree checks an answer against an independent solve of the same
// problem: two proven answers must cost the same, and no answer may cost
// less than the other's proven lower bound.
func agree(cost int64, proven bool, ref rentmin.Solution) error {
	const tol = 1e-6
	switch {
	case proven && ref.Proven && cost != ref.Alloc.Cost:
		return fmt.Errorf("cost %d, independent solve %d", cost, ref.Alloc.Cost)
	case float64(cost) < math.Ceil(ref.Bound-tol):
		return fmt.Errorf("cost %d below the independent solve's bound %.6f", cost, ref.Bound)
	case proven && cost > ref.Alloc.Cost:
		return fmt.Errorf("proven cost %d above the independent solve's %d", cost, ref.Alloc.Cost)
	}
	return nil
}

// oracleLimit caps an independent solve made to check an answer.
const oracleLimit = 5 * time.Second

// item is one (problem, target) question a workload asks, with what the
// benchmark knows about its answer.
type item struct {
	key    string // stable name of the question, used as its pass key
	p      *rentmin.Problem
	m      *rentmin.CostModel
	golden int64 // expected cost (Table III); -1 when unknown
}

func newItem(key string, p *rentmin.Problem, target int) item {
	q := p.Clone()
	q.Target = target
	return item{key: key, p: q, m: rentmin.NewCostModel(q), golden: -1}
}

// recordRefs records the LP relaxation bound of every item, the scale
// rental_cost_ratio divides by. It runs after the timed run, so set-up
// time measures the workload's own set-up only.
func recordRefs(rec *opLog, items []item) error {
	for _, it := range items {
		ref, err := lpBound(it.m, it.p.Target)
		if err != nil {
			return fmt.Errorf("%s: %w", it.key, err)
		}
		rec.ref(it.key, ref)
	}
	return nil
}

// lpBound solves the LP relaxation of the paper's MILP (solve.BuildMILP)
// and returns its optimum, a lower bound on every rental cost.
func lpBound(m *rentmin.CostModel, target int) (float64, error) {
	if target <= 0 {
		return 0, nil
	}
	sol, err := lp.Solve(&solve.BuildMILP(m, target).LP, nil)
	if err != nil {
		return 0, fmt.Errorf("LP relaxation: %w", err)
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("LP relaxation: status %v", sol.Status)
	}
	return sol.Objective, nil
}

// check certifies an answer to the item and compares it with the known
// cost, if any.
func (it item) check(a rentmin.Allocation, bound float64, hasBound, proven bool) error {
	if err := certify(it.p, it.m, a, bound, hasBound, proven); err != nil {
		return fmt.Errorf("%s: %w", it.key, err)
	}
	if it.golden >= 0 && a.Cost != it.golden {
		return fmt.Errorf("%s: cost %d, expected %d", it.key, a.Cost, it.golden)
	}
	return nil
}
