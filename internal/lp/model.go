package lp

import "math"

// Model is the fixed part of a linear program — objective and constraint
// rows — validated once and, for an LP the sparse kernel solves, stored
// once as the column-major (CSC) matrix [A | I]. A branch-and-bound
// search builds one Model and solves every node through it with that
// node's variable bounds; only the bounds are validated per solve, and
// each solve builds its own mutable state (working bounds, basic values,
// statuses, eta file), so a Model is read-only after NewModel and safe
// to share across goroutines.
//
// The Model keeps references to the problem's Objective and Constraints
// (the dense kernel reads the rows directly); the caller must not modify
// them while the Model is in use.
type Model struct {
	objective   []float64
	constraints []Constraint
	m, n        int
	kernel      Kernel

	// Sparse kernel only (nil for a dense-rule model): the CSC of [A | I]
	// with one unit slack column per row, the phase-2 cost per column
	// (structural c, slacks 0) and the right-hand sides.
	ptr  []int32
	ind  []int32
	val  []float64
	cost []float64
	rhs  []float64
}

// NewModel validates p's objective and constraint rows and builds the
// model the kernel rule picks for p's row count (see Solve). p's bounds
// are ignored: each solve supplies its own.
func NewModel(p *Problem) (*Model, error) {
	return newModel(p, kernelFor(len(p.Constraints)))
}

// newModel is NewModel on kernel k; tests call it to force each kernel.
func newModel(p *Problem, k Kernel) (*Model, error) {
	if err := validateObjective(p.Objective); err != nil {
		return nil, err
	}
	if err := validateRows(p.Constraints, p.NumVars()); err != nil {
		return nil, err
	}
	md := &Model{
		objective:   p.Objective,
		constraints: p.Constraints,
		m:           len(p.Constraints),
		n:           p.NumVars(),
		kernel:      k,
	}
	if k == KernelSparse {
		md.buildColumns()
	}
	return md, nil
}

// buildColumns stores [A | I] column-major, with the sparse kernel's
// per-column costs and the right-hand sides.
func (md *Model) buildColumns() {
	m, n := md.m, md.n
	nnz := m // slack columns
	for i := range md.constraints {
		for _, v := range md.constraints[i].Coeffs {
			if v != 0 {
				nnz++
			}
		}
	}
	md.ptr = make([]int32, n+m+1)
	md.ind = make([]int32, 0, nnz)
	md.val = make([]float64, 0, nnz)
	for j := 0; j < n; j++ {
		for i := range md.constraints {
			if v := md.constraints[i].Coeffs[j]; v != 0 {
				md.ind = append(md.ind, int32(i))
				md.val = append(md.val, v)
			}
		}
		md.ptr[j+1] = int32(len(md.ind))
	}
	md.rhs = make([]float64, m)
	for i := range md.constraints {
		md.ind = append(md.ind, int32(i))
		md.val = append(md.val, 1)
		md.ptr[n+i+1] = int32(len(md.ind))
		md.rhs[i] = md.constraints[i].RHS
	}
	md.cost = make([]float64, n+m)
	copy(md.cost, md.objective)
}

// problem returns the model's LP with the given variable bounds, the view
// the dense tableau is built from.
func (md *Model) problem(lo, hi []float64) *Problem {
	return &Problem{Objective: md.objective, Constraints: md.constraints, Lo: lo, Hi: hi}
}

// SolveFrom minimizes the model under the variable bounds lo <= x <= hi
// (Problem.Lo/Hi form: either slice nil for the default side, or one
// entry per variable), re-optimizing from basis b when it is non-nil and
// solving cold otherwise. b may come from any solve of a related problem,
// exactly as in the package-level SolveFrom, which is NewModel plus this
// call; rejected warm starts fall back to a cold solve the same way.
//
// A *FactorizedBasis restored onto a sparse model keeps the
// factorization of its restored basis for that model: every later
// restore of the same snapshot onto the same model shares it read-only
// instead of refactorizing, so the children of one branch-and-bound node
// factor their parent's basis once between them. Results are
// bit-identical either way.
func (md *Model) SolveFrom(lo, hi []float64, b BasisSnapshot, opts *Options) (Solution, error) {
	if err := validateBounds(lo, hi, md.n); err != nil {
		return Solution{}, err
	}
	wasted := 0
	if b != nil {
		rows, flips, n := b.data()
		if n == md.n && len(rows) <= md.m {
			var sol Solution
			var ok bool
			if md.kernel == KernelSparse {
				sp := md.newSparse(lo, hi, opts)
				sol, ok = sp.solveFrom(b, rows, flips)
				wasted = sp.pivots
			} else {
				p := md.problem(lo, hi)
				t := newTableau(p, opts)
				sol, ok = t.solveFrom(p, rows, flips)
				wasted = t.pivots // restore/dual pivots spent before the rejection
			}
			if ok {
				sol.Kernel = md.kernel
				return sol, nil
			}
		}
	}
	var sol Solution
	var err error
	if md.kernel == KernelSparse {
		sol, err = md.newSparse(lo, hi, opts).solve()
	} else {
		p := md.problem(lo, hi)
		sol, err = newTableau(p, opts).solve(p)
	}
	sol.Kernel = md.kernel
	sol.Iterations += wasted
	return sol, err
}

// newSparse builds the per-solve state of the sparse kernel over the
// model's shared column store.
func (md *Model) newSparse(lo, hi []float64, opts *Options) *sparseSolver {
	m, n := md.m, md.n
	sp := &sparseSolver{
		md: md, m: m, n: n, nTot: n + m,
		ptr: md.ptr, ind: md.ind, val: md.val,
		obj:     md.cost,
		b:       md.rhs,
		lo:      make([]float64, n+m),
		hi:      make([]float64, n+m),
		x:       make([]float64, n+m),
		status:  make([]int8, n+m),
		basis:   make([]int32, m),
		f:       newBasisFactor(m),
		tol:     opts.tol(),
		maxIter: opts.maxIter(m, n),
		vrow:    make([]float64, m),
		wpos:    make([]float64, m),
		cpos:    make([]float64, m),
		yrow:    make([]float64, m),
	}
	sp.dtol = sqrtTol(sp.tol)
	copy(sp.lo, lo) // nil lo leaves the default 0
	if hi != nil {
		copy(sp.hi, hi)
	} else {
		for j := 0; j < n; j++ {
			sp.hi[j] = math.Inf(1)
		}
	}
	for i := range md.constraints {
		switch md.constraints[i].Rel {
		case LE:
			sp.lo[n+i], sp.hi[n+i] = 0, math.Inf(1)
		case GE:
			sp.lo[n+i], sp.hi[n+i] = math.Inf(-1), 0
		case EQ:
			sp.lo[n+i], sp.hi[n+i] = 0, 0
		}
	}
	return sp
}
