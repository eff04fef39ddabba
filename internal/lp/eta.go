package lp

import "math"

// Product-form factorization of the simplex basis for the sparse kernel.
//
// The basis matrix B (one column per basis position) is represented by
// its inverse in product form: refactorize builds m Gauss–Jordan eta
// matrices E_1..E_m with partial (largest-entry) pivoting so that
// E_m···E_1·B = P, where P is the row permutation recorded in rowOfPos
// (position p pivoted on row rowOfPos[p]). Each basis exchange appends
// one PFI update eta U in *position* space instead of recomputing the
// factorization, and the eta file is rebuilt from scratch every
// refactorEvery updates (bounding both fill-in and roundoff drift):
//
//	B^{-1} = U_k ··· U_1 · P^T · E_m ··· E_1
//
// FTRAN applies that product to a column (original-row input, basis-
// position output); BTRAN applies the transpose in reverse (basis-
// position input, original-row output — which is exactly where the dual
// multipliers live, so duals need no extra permutation bookkeeping).
type eta struct {
	row int32 // pivot index: original row (base etas) or basis position (updates)
	piv float64
	ind []int32 // off-pivot nonzero indices
	val []float64
}

// apply computes v <- E·v for the Gauss–Jordan eta built from pivot
// vector w: (E·v)[row] = v[row]/piv, (E·v)[i] = v[i] - w[i]·v[row]/piv.
func (e *eta) apply(v []float64) {
	t := v[e.row] / e.piv
	v[e.row] = t
	if t == 0 {
		return
	}
	for k, i := range e.ind {
		v[i] -= e.val[k] * t
	}
}

// applyT computes v <- E^T·v: only the pivot entry changes,
// (E^T·v)[row] = (v[row] - Σ w[i]·v[i]) / piv.
func (e *eta) applyT(v []float64) {
	s := v[e.row]
	for k, i := range e.ind {
		s -= e.val[k] * v[i]
	}
	v[e.row] = s / e.piv
}

// refactorEvery is the eta-file length that triggers a refactorization.
const refactorEvery = 64

// basisFactor is the factorized basis: base etas from the last
// refactorization plus the PFI update etas appended since.
type basisFactor struct {
	m        int
	base     []eta
	rowOfPos []int32
	updates  []eta
	pivoted  []bool    // refactorize scratch
	work     []float64 // refactorize scratch
	// borrowed marks base and rowOfPos as shared with a snapshot's
	// restore memo (see FactorizedBasis): read-only, so the next
	// refactorize or identity replaces them instead of writing into them.
	borrowed bool
}

// newBasisFactor returns an empty factor for m rows; identity,
// refactorize or borrow installs its first factorization.
func newBasisFactor(m int) *basisFactor {
	return &basisFactor{
		m:       m,
		pivoted: make([]bool, m),
		work:    make([]float64, m),
	}
}

// identity resets the factorization to B = I with the natural row order
// (the all-slack starting basis: every slack column is a unit column).
func (f *basisFactor) identity() {
	f.own()
	f.base = f.base[:0]
	f.updates = f.updates[:0]
	for p := range f.rowOfPos {
		f.rowOfPos[p] = int32(p)
	}
}

// refactorize rebuilds the eta file from scratch for the given basis
// columns. Each step FTRANs the next basis column through the etas built
// so far, pivots on the largest remaining entry, and records one
// Gauss–Jordan eta; it fails (returns false) when the largest available
// pivot falls below minPiv — a singular or numerically unsafe basis.
func (f *basisFactor) refactorize(sp *sparseSolver, basis []int32, minPiv float64) bool {
	f.own()
	f.base = f.base[:0]
	f.updates = f.updates[:0]
	clear(f.pivoted)
	v := f.work
	for p := 0; p < f.m; p++ {
		clear(v)
		c := basis[p]
		for k := sp.ptr[c]; k < sp.ptr[c+1]; k++ {
			v[sp.ind[k]] = sp.val[k]
		}
		for e := range f.base {
			f.base[e].apply(v)
		}
		r, best := -1, minPiv
		for i := 0; i < f.m; i++ {
			if !f.pivoted[i] {
				if a := math.Abs(v[i]); a > best {
					r, best = i, a
				}
			}
		}
		if r < 0 {
			return false
		}
		f.base = append(f.base, makeEta(int32(r), v))
		f.rowOfPos[p] = int32(r)
		f.pivoted[r] = true
	}
	return true
}

// own gives the factor private base and rowOfPos arrays before it
// rewrites them (copy on write: borrowed arrays are never reused).
func (f *basisFactor) own() {
	if f.borrowed || f.base == nil {
		f.base = make([]eta, 0, f.m)
		f.rowOfPos = make([]int32, f.m)
		f.borrowed = false
	}
}

// borrow installs a shared refactorization (base etas and row order) with
// an empty update file; the factor treats both arrays as read-only.
func (f *basisFactor) borrow(base []eta, rowOfPos []int32) {
	f.base, f.rowOfPos = base, rowOfPos
	f.updates = f.updates[:0]
	f.borrowed = true
}

// makeEta captures the off-pivot nonzeros of w into an eta with pivot
// index r.
func makeEta(r int32, w []float64) eta {
	nz := 0
	for i, v := range w {
		if v != 0 && int32(i) != r {
			nz++
		}
	}
	e := eta{row: r, piv: w[r], ind: make([]int32, 0, nz), val: make([]float64, 0, nz)}
	for i, v := range w {
		if v != 0 && int32(i) != r {
			e.ind = append(e.ind, int32(i))
			e.val = append(e.val, v)
		}
	}
	return e
}

// update appends the PFI eta for replacing the basis column at position p,
// built from the FTRANed entering column w (position space).
func (f *basisFactor) update(p int, w []float64) {
	f.updates = append(f.updates, makeEta(int32(p), w))
}

// needsRefactor reports that the eta file is due for a rebuild.
func (f *basisFactor) needsRefactor() bool { return len(f.updates) >= refactorEvery }

// ftran solves B·w = v: vrow is the input in original-row space (it is
// clobbered), wpos receives the result by basis position.
func (f *basisFactor) ftran(vrow, wpos []float64) {
	for e := range f.base {
		f.base[e].apply(vrow)
	}
	for p := 0; p < f.m; p++ {
		wpos[p] = vrow[f.rowOfPos[p]]
	}
	for e := range f.updates {
		f.updates[e].apply(wpos)
	}
}

// btran solves B^T·y = c: cpos is the input by basis position (it is
// clobbered), yrow receives the result in original-row space.
func (f *basisFactor) btran(cpos, yrow []float64) {
	for e := len(f.updates) - 1; e >= 0; e-- {
		f.updates[e].applyT(cpos)
	}
	clear(yrow)
	for p := 0; p < f.m; p++ {
		yrow[f.rowOfPos[p]] = cpos[p]
	}
	for e := len(f.base) - 1; e >= 0; e-- {
		f.base[e].applyT(yrow)
	}
}
