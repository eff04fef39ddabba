package lp

import (
	"math"
	"sync"
)

// Warm-started re-optimization for the sparse kernel.
//
// A snapshot names the logical basis, not the eta file, so restoring is
// one refactorization of the named columns: numerically fresh, and
// indifferent to which kernel produced the snapshot (the encoding is
// shared with the dense *Basis — a dense surplus column and a sparse
// slack column of the same row span the same space, so the named basis
// matrices are column-equivalent). The restored basis is dual feasible
// for a bounds-only change, so dual-simplex pivots repair primal
// feasibility; anything off-script — a singular restored basis, a stale
// snapshot with materially negative reduced costs, an iteration-limit, a
// final point whose residuals fail a from-scratch check — reports
// ok == false and the caller falls back to a cold solve.
//
// The refactorization depends only on the restored basis columns, the
// model's matrix and the pivot threshold — never on bounds or right-hand
// sides — so the up to 2·StrongBranch children of a branch-and-bound
// node, which restore one parent snapshot onto one model, would each
// compute the same factor. restoreMemo computes it once per (snapshot,
// model, threshold) and shares it. A live eta file is never handed over
// instead: after update etas it differs in roundoff from a fresh
// factorization, and children would drift from the trees a fresh restore
// produces.

// restoreMemo is the refactorization a FactorizedBasis restores to on
// one model: the base etas and row order of the first restore, keyed by
// the model and the pivot threshold (dtol) it was computed under. The
// mutex makes concurrent sibling restores compute it once; a restore
// under another key (a different model — a session's root basis, or rows
// appended — or another tolerance) misses and refactorizes privately.
type restoreMemo struct {
	mu       sync.Mutex
	md       *Model
	dtol     float64
	ok       bool // the restored basis factored (false: numerically singular)
	base     []eta
	rowOfPos []int32
}

// restoreFactor factors the restored basis sp.basis, through the
// snapshot's memo when b is a *FactorizedBasis. It reports false on a
// numerically singular basis.
func (sp *sparseSolver) restoreFactor(b BasisSnapshot) bool {
	fb, _ := b.(*FactorizedBasis)
	if fb == nil {
		return sp.f.refactorize(sp, sp.basis, sp.dtol)
	}
	mm := &fb.memo
	mm.mu.Lock()
	switch {
	case mm.md == nil:
		mm.md, mm.dtol = sp.md, sp.dtol
		mm.ok = sp.f.refactorize(sp, sp.basis, sp.dtol)
		if mm.ok {
			mm.base, mm.rowOfPos = sp.f.base, sp.f.rowOfPos
			sp.f.borrowed = true
		}
	case mm.md == sp.md && mm.dtol == sp.dtol:
		if mm.ok {
			sp.f.borrow(mm.base, mm.rowOfPos)
		}
	default:
		mm.mu.Unlock()
		return sp.f.refactorize(sp, sp.basis, sp.dtol)
	}
	ok := mm.ok
	mm.mu.Unlock()
	return ok
}

// solveFrom restores snapshot b (decoded as rows and flips, the
// BasisSnapshot.data encoding) and re-optimizes; ok == false means the
// caller must solve cold.
func (sp *sparseSolver) solveFrom(b BasisSnapshot, rows, flips []int32) (Solution, bool) {
	if !sp.restore(b, rows, flips) {
		return Solution{}, false
	}
	return sp.reoptimize()
}

// restore installs the snapshot's basis, nonbasic resting bounds and
// factorization; false rejects the snapshot (a malformed encoding, a
// flip onto a removed upper bound, or a singular basis).
func (sp *sparseSolver) restore(b BasisSnapshot, rows, flips []int32) bool {
	inBasis := make([]bool, sp.nTot)
	for p, enc := range rows {
		var col int32
		if enc >= 0 {
			if int(enc) >= sp.n {
				return false
			}
			col = enc
		} else {
			r := ^enc
			if int(r) >= sp.m {
				return false
			}
			col = int32(sp.n) + r
		}
		if inBasis[col] {
			return false
		}
		inBasis[col] = true
		sp.basis[p] = col
	}
	// Rows appended after the snapshot enter with their own slack basic.
	for p := len(rows); p < sp.m; p++ {
		col := int32(sp.n + p)
		if inBasis[col] {
			return false
		}
		inBasis[col] = true
		sp.basis[p] = col
	}

	// Nonbasic columns rest at a finite bound: the lower one when it
	// exists (structural lower bounds are always finite), else the upper
	// (a GE-row slack, whose range is (-inf, 0]).
	for j := 0; j < sp.nTot; j++ {
		if inBasis[j] {
			sp.status[j] = spBasic
			continue
		}
		if !math.IsInf(sp.lo[j], -1) {
			sp.status[j], sp.x[j] = spLower, sp.lo[j]
		} else {
			sp.status[j], sp.x[j] = spUpper, sp.hi[j]
		}
	}
	// The snapshot's complemented columns rest at their upper bound. A
	// column the basis already claims is skipped (dense snapshots list
	// basic columns measured from their upper bound; the sparse kernel
	// has no such representation and the basis determines its value). A
	// flip whose upper bound the new problem removed cannot be restored.
	for _, enc := range flips {
		j := int(enc)
		if j < 0 || j >= sp.n {
			return false
		}
		if sp.status[j] == spBasic {
			continue
		}
		if math.IsInf(sp.hi[j], 1) {
			return false
		}
		sp.status[j], sp.x[j] = spUpper, sp.hi[j]
	}

	return sp.restoreFactor(b)
}

// reoptimize runs the warm path on the restored, factored basis: dual
// pivots to primal feasibility, a primal polish, and the final checks.
func (sp *sparseSolver) reoptimize() (Solution, bool) {
	sp.computeXB()
	sp.cost = sp.obj
	// The restored basis must still be dual feasible (up to roundoff); a
	// materially violated reduced cost means the snapshot is stale.
	if !sp.dualFeasible(sp.dtol) {
		return Solution{}, false
	}
	switch sp.dualIterate() {
	case Infeasible:
		return Solution{Status: Infeasible, Iterations: sp.pivots, Warm: true}, true
	case IterLimit:
		return Solution{}, false
	}
	// Polish: dual pivots keep dual feasibility only up to roundoff.
	if st := sp.primalIterate(); st != Optimal {
		return Solution{}, false
	}
	// Trust but verify before reporting optimality through the warm path.
	if !sp.withinBounds(sp.dtol) || !sp.dualFeasible(sp.dtol) || !sp.residualsWithin(sp.dtol) {
		return Solution{}, false
	}
	return sp.solution(true), true
}

// residualsWithin recomputes the final point's residuals from the
// model's column store, independently of the eta file: the row residuals
// A·x + s − b, each within slack·(1+|b_i|), and the basic reduced costs
// c_j − y·a_j against the original objective, each within
// slack·(1+|c_j|). It reads the duals y of the true objective that
// dualFeasible leaves in yrow. O(nnz).
func (sp *sparseSolver) residualsWithin(slack float64) bool {
	r := sp.vrow
	for i, v := range sp.b {
		r[i] = -v
	}
	for j := 0; j < sp.nTot; j++ {
		xj := sp.x[j]
		if xj == 0 {
			continue
		}
		for k := sp.ptr[j]; k < sp.ptr[j+1]; k++ {
			r[sp.ind[k]] += sp.val[k] * xj
		}
	}
	for i, v := range r {
		if math.Abs(v) > slack*(1+math.Abs(sp.b[i])) {
			return false
		}
	}
	for p := 0; p < sp.m; p++ {
		c := int(sp.basis[p])
		if math.Abs(sp.obj[c]-sp.colDot(c, sp.yrow)) > slack*(1+math.Abs(sp.obj[c])) {
			return false
		}
	}
	return true
}

// dualFeasible reports whether every nonbasic reduced cost points into
// the feasible direction up to slack: non-negative at a lower bound,
// non-positive at an upper bound.
func (sp *sparseSolver) dualFeasible(slack float64) bool {
	sp.reducedCosts()
	for j := 0; j < sp.nTot; j++ {
		st := sp.status[j]
		if st == spBasic || sp.lo[j] == sp.hi[j] {
			continue
		}
		d := sp.cost[j] - sp.colDot(j, sp.yrow)
		if st == spLower && d < -slack {
			return false
		}
		if st == spUpper && d > slack {
			return false
		}
	}
	return true
}

// dualIterate runs dual-simplex pivots on a dual-feasible basis until
// primal feasibility (Optimal), a proof that no feasible point exists
// (Infeasible), or the pivot cap (IterLimit). Each iteration takes the
// worst bound violation among the basic values, BTRANs that position's
// unit vector into the corresponding row of B^{-1}, and picks the
// entering column by the dual ratio test: among columns whose entry
// moves the violated basic toward its bound without leaving their own
// resting bound the wrong way, minimize |reduced cost / entry| (ties to
// the larger entry magnitude for stability).
func (sp *sparseSolver) dualIterate() Status {
	retried := false
	for sp.pivots < sp.maxIter {
		r := -1
		worst := sp.tol
		below := false
		for p := 0; p < sp.m; p++ {
			c := sp.basis[p]
			if v := sp.lo[c] - sp.x[c]; v > worst {
				r, worst, below = p, v, true
			}
			if v := sp.x[c] - sp.hi[c]; v > worst {
				r, worst, below = p, v, false
			}
		}
		if r < 0 {
			return Optimal
		}

		// rho = row r of B^{-1}, in original-row space: alpha_j = rho·a_j
		// is the entering column's FTRANed entry at position r.
		clear(sp.cpos)
		sp.cpos[r] = 1
		sp.f.btran(sp.cpos, sp.vrow)
		sp.reducedCosts() // yrow <- duals of the working cost

		q := -1
		bestT, bestAbs := 0.0, 0.0
		for j := 0; j < sp.nTot; j++ {
			st := sp.status[j]
			if st == spBasic || sp.lo[j] == sp.hi[j] {
				continue
			}
			a := sp.colDot(j, sp.vrow)
			var ok bool
			if below {
				// x_B[r] must increase: entering at-lower increases (needs
				// alpha < 0), entering at-upper decreases (needs alpha > 0).
				ok = (st == spLower && a < -sp.tol) || (st == spUpper && a > sp.tol)
			} else {
				ok = (st == spLower && a > sp.tol) || (st == spUpper && a < -sp.tol)
			}
			if !ok {
				continue
			}
			d := sp.cost[j] - sp.colDot(j, sp.yrow)
			t := math.Abs(d / a)
			abs := math.Abs(a)
			switch {
			case q < 0, t < bestT-sp.dtol:
				q, bestT, bestAbs = j, t, abs
			case t < bestT+sp.dtol && abs > bestAbs:
				q, bestAbs = j, abs
				if t < bestT {
					bestT = t
				}
			}
		}
		if q < 0 {
			// The violated row cannot be moved toward its bound by any
			// nonbasic column without breaking dual feasibility: the LP
			// dual is unbounded, so the primal is infeasible.
			return Infeasible
		}

		sp.scatterCol(q, sp.vrow)
		sp.f.ftran(sp.vrow, sp.wpos)
		g := sp.wpos[r]
		if math.Abs(g) < sp.dtol && !retried && len(sp.f.updates) > 0 {
			// Tiny pivot through a long eta file: refactorize, re-price.
			if !sp.refactorize(sp.tol) {
				return IterLimit
			}
			retried = true
			continue
		}
		if math.Abs(g) <= sp.tol {
			return IterLimit
		}
		retried = false

		leaving := sp.basis[r]
		target := sp.hi[leaving]
		if below {
			target = sp.lo[leaving]
		}
		dir := 1.0
		if sp.status[q] == spUpper {
			dir = -1
		}
		t := (sp.x[leaving] - target) / (dir * g)
		if t < 0 {
			t = 0 // roundoff: degenerate, not a wrong-way step
		}
		for p := 0; p < sp.m; p++ {
			if w := sp.wpos[p]; w != 0 {
				sp.x[sp.basis[p]] -= t * dir * w
			}
		}
		if dir > 0 {
			sp.x[q] = sp.lo[q] + t
		} else {
			sp.x[q] = sp.hi[q] - t
		}
		if below {
			sp.x[leaving], sp.status[leaving] = sp.lo[leaving], spLower
		} else {
			sp.x[leaving], sp.status[leaving] = sp.hi[leaving], spUpper
		}
		sp.status[q] = spBasic
		sp.basis[r] = int32(q)
		sp.f.update(r, sp.wpos)
		sp.pivots++
		if sp.f.needsRefactor() && !sp.refactorize(sp.tol) {
			return IterLimit
		}
	}
	return IterLimit
}
