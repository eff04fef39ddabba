package lp

import (
	"math"
	"sort"
)

// Warm-started re-optimization.
//
// A branch-and-bound child differs from its parent LP by one tightened
// variable bound. Bounds live in the ratio tests, not in the tableau, so
// the child has the same m×n tableau as the parent and the parent's
// optimal basis stays dual feasible (reduced costs do not depend on b, lo
// or hi). The cheapest way to solve the child is therefore to restore the
// parent basis into the child tableau and run dual-simplex pivots until
// primal feasibility is repaired — no phase-1 artificials, no appended
// rows, and typically only a handful of pivots instead of a full
// two-phase solve.

// Basis is the dense kernel's BasisSnapshot: a compact snapshot of a
// simplex basis, taken from an optimal solve (Solution.Basis) and
// restorable onto a related problem via SolveFrom. The encoding is
// shape-stable: each entry names the basic column either as a structural
// variable index or as "the slack/surplus column of constraint row i",
// so it survives appending rows (which shifts raw auxiliary column
// indices). The snapshot also records which structural columns were
// complemented (resting at, or measured from, their upper bound) —
// without that set the restored point would be a different vertex than
// the one the basis was optimal at. The encoding is kernel-neutral: the
// sparse kernel restores a *Basis by refactorizing the named columns.
type Basis struct {
	// rows[i] encodes the column basic in snapshot row i: v >= 0 is the
	// structural variable v; v < 0 is the auxiliary (slack/surplus) column
	// of constraint row ^v.
	rows []int32
	// flips lists the complemented structural columns in increasing
	// order. Only structural columns appear: slack and artificial columns
	// have no finite upper bound and can never be complemented.
	flips []int32
	// n is the structural variable count of the snapshot's problem.
	n int
}

// Rows returns the number of constraint rows the snapshot covers.
func (b *Basis) Rows() int { return len(b.rows) }

// Kernel implements BasisSnapshot: the dense tableau kernel.
func (b *Basis) Kernel() Kernel { return KernelDense }

// data implements BasisSnapshot (nil-safe: a typed-nil *Basis decodes to
// n < 0, which no problem matches).
func (b *Basis) data() ([]int32, []int32, int) {
	if b == nil {
		return nil, nil, -1
	}
	return b.rows, b.flips, b.n
}

// snapshotBasis captures the current basis, or nil when it cannot be
// restored elsewhere (a redundant row, or an artificial still basic).
func (t *tableau) snapshotBasis() *Basis {
	// Invert rowAux: auxiliary column -> owning row.
	owner := make(map[int]int32, t.m)
	for i, c := range t.rowAux {
		if c < t.artStart {
			owner[c] = int32(i)
		}
	}
	rows := make([]int32, t.m)
	for i := 0; i < t.m; i++ {
		if t.redundant[i] {
			return nil
		}
		c := t.basis[i]
		switch {
		case c < t.n:
			rows[i] = int32(c)
		case c < t.artStart:
			r, ok := owner[c]
			if !ok {
				return nil
			}
			rows[i] = ^r
		default:
			return nil // artificial basic
		}
	}
	var flips []int32
	for j := 0; j < t.n; j++ {
		if t.flipped[j] {
			flips = append(flips, int32(j))
		}
	}
	return &Basis{rows: rows, flips: flips, n: t.n}
}

// solveFrom attempts the warm-started solve from a decoded snapshot
// (BasisSnapshot.data encoding); ok == false means the caller must fall
// back to a cold solve. It restores the basis (and the snapshot's
// complemented columns) into the fresh tableau, repairs primal
// feasibility with dual-simplex pivots and polishes with primal pivots.
func (t *tableau) solveFrom(p *Problem, rows, flips []int32) (Solution, bool) {
	if !t.restoreBasis(rows, flips) {
		return Solution{}, false
	}
	t.setObjective(p.Objective)
	dt := t.degenTol()
	// The restored basis must still be dual feasible (up to roundoff); a
	// materially negative reduced cost means the basis is stale.
	for j := 0; j < t.artStart; j++ {
		if t.obj[j] < -dt {
			return Solution{}, false
		}
	}
	forbid := func(col int) bool { return col >= t.artStart }
	switch t.dualIterate(forbid) {
	case Infeasible:
		return Solution{Status: Infeasible, Iterations: t.pivots, Warm: true}, true
	case IterLimit:
		return Solution{}, false
	}
	// Polish: dual pivots maintain dual feasibility only up to roundoff;
	// primal pivots clean any residue (usually zero iterations).
	if st := t.iterate(forbid); st != Optimal {
		return Solution{}, false
	}
	// Trust but verify before reporting optimality through the warm path:
	// every basic value inside its bounds, every reduced cost
	// non-negative.
	if !t.withinBounds(dt) {
		return Solution{}, false
	}
	for j := 0; j < t.artStart; j++ {
		if t.obj[j] < -dt {
			return Solution{}, false
		}
	}
	return Solution{
		Status:     Optimal,
		X:          t.extractX(),
		Objective:  t.objVal + t.objBase,
		Iterations: t.pivots,
		Duals:      t.duals(),
		Basis:      snapOrNil(t.snapshotBasis()),
		Warm:       true,
	}, true
}

// restoreBasis pivots the fresh tableau to the snapshot basis: the
// snapshot's complemented columns are complemented first (so the restored
// point measures them from their upper bound, exactly as the snapshot
// did), then snapshot rows take their recorded basic column and appended
// rows keep their own slack/surplus. Each restore pivot is one Gaussian
// elimination step with partial (largest-entry) row selection, so the
// restore succeeds exactly when the requested basis matrix is numerically
// nonsingular.
func (t *tableau) restoreBasis(rows, flips []int32) bool {
	// Re-apply the snapshot's complemented columns. A column whose upper
	// bound the new problem removed cannot be complemented — reject and
	// let the cold solve handle it (branching only tightens bounds, so
	// this is a defensive path, not a hot one). A sparse-kernel snapshot
	// never lists a basic column here (its flips are nonbasic at-upper
	// columns only); a dense snapshot may, and re-complementing a basic
	// column is exactly how the dense tableau represents that vertex.
	for _, enc := range flips {
		col := int(enc)
		if col < 0 || col >= t.n || math.IsInf(t.cap[col], 1) {
			return false
		}
		u := t.cap[col]
		for i := 0; i < t.m; i++ {
			row := t.a[i]
			if v := row[col]; v != 0 {
				t.rhs[i] -= v * u
				row[col] = -v
			}
		}
		t.flipped[col] = true
	}

	inBasis := make([]bool, t.total)
	targets := make([]int, 0, t.m)
	add := func(col int) bool {
		if col >= t.artStart || inBasis[col] {
			return false
		}
		inBasis[col] = true
		targets = append(targets, col)
		return true
	}
	for _, enc := range rows {
		col := int(enc)
		if enc < 0 {
			r := int(^enc)
			if r >= t.m {
				return false
			}
			col = t.rowAux[r]
		} else if col >= t.n {
			return false
		}
		if !add(col) {
			return false
		}
	}
	// Rows appended after the snapshot enter with their own auxiliary
	// basic; an appended equality row has only an artificial, which
	// cannot be warm started.
	for i := len(rows); i < t.m; i++ {
		if !add(t.rowAux[i]) {
			return false
		}
	}

	// Pass 1: columns that are basic in the initial tableau (slacks and
	// artificials are identity columns) need no pivot.
	rowOf := make(map[int]int, t.m)
	for i, c := range t.basis {
		rowOf[c] = i
	}
	done := make([]bool, t.m)
	pending := make([]int, 0, len(targets))
	for _, col := range targets {
		if r, ok := rowOf[col]; ok && !done[r] {
			done[r] = true
			continue
		}
		pending = append(pending, col)
	}
	// Pass 2: eliminate the rest in deterministic column order, choosing
	// the largest pivot among unfinished rows.
	sort.Ints(pending)
	pivTol := t.degenTol()
	for _, col := range pending {
		best, bestAbs := -1, pivTol
		for r := 0; r < t.m; r++ {
			if done[r] {
				continue
			}
			if v := math.Abs(t.a[r][col]); v > bestAbs {
				best, bestAbs = r, v
			}
		}
		if best < 0 {
			return false // singular or numerically unsafe basis
		}
		t.pivot(best, col)
		done[best] = true
	}
	return true
}

// repairPrimal is the feasibility net behind every Optimal claim of the
// primal path: degenerate-tie pivots (and the small-negative RHS clamp)
// can leave a basic value slightly outside its bounds, which primal
// pricing alone never notices. The terminal basis is dual feasible, so a
// few dual-simplex pivots restore primal feasibility exactly; primal
// pivots then re-polish. The alternation converges immediately in
// practice; a tableau that refuses to settle is reported as IterLimit —
// never as a feasible optimum with a violated row or bound, and never as
// Infeasible (phase 1 already proved feasibility).
func (t *tableau) repairPrimal(st Status, forbid func(col int) bool) Status {
	if st != Optimal {
		return st
	}
	for round := 0; round < 4; round++ {
		if t.withinBounds(t.tol) {
			return Optimal
		}
		if ds := t.dualIterate(forbid); ds != Optimal {
			return IterLimit
		}
		if ps := t.iterate(forbid); ps != Optimal {
			return ps
		}
	}
	return IterLimit
}

// dualIterate runs dual-simplex pivots on a dual-feasible tableau until
// primal feasibility (Optimal), a proof that no feasible point exists
// (Infeasible), or the pivot cap (IterLimit). The leaving row is the one
// whose basic variable violates its bounds the most — below 0, or above
// its finite capacity; an above-capacity row is complemented first
// (bounds in the ratio test, not the tableau), which reduces it to the
// classic below-zero case. The entering column then minimizes the dual
// ratio reduced-cost / |entry| over negative entries, keeping the
// smallest column index on near-ties (deterministic, and Bland-like
// against degenerate cycling).
func (t *tableau) dualIterate(forbid func(col int) bool) Status {
	dt := t.degenTol()
	for t.pivots < t.maxIter {
		row := -1
		worst := t.tol
		above := false
		for i := 0; i < t.m; i++ {
			if t.redundant[i] {
				continue
			}
			switch {
			case -t.rhs[i] > worst:
				worst, row, above = -t.rhs[i], i, false
			default:
				if cb := t.cap[t.basis[i]]; t.rhs[i]-cb > worst {
					worst, row, above = t.rhs[i]-cb, i, true
				}
			}
		}
		if row < 0 {
			return Optimal
		}
		if above {
			// The basic variable crossed its upper bound: complement it so
			// it reads as a below-zero violation and the standard dual
			// ratio test applies.
			t.complementRow(row)
		}
		arow := t.a[row]
		col := -1
		bestRatio := math.Inf(1)
		for j := 0; j < t.total; j++ {
			if forbid != nil && forbid(j) {
				continue
			}
			a := arow[j]
			if a >= -t.tol {
				continue
			}
			if ratio := t.obj[j] / -a; ratio < bestRatio-dt {
				col, bestRatio = j, ratio
			}
		}
		if col < 0 {
			// The row reads x_B + Σ a_ij·x_j = rhs < 0 with every usable
			// coefficient >= 0 and every nonbasic variable at 0 with room
			// only to increase: no point within the bounds satisfies it.
			return Infeasible
		}
		t.pivot(row, col)
	}
	return IterLimit
}
