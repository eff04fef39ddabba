package lp

import "math"

// Sparse revised simplex kernel.
//
// The problem is held in equality form A·x + s = b with one slack column
// per row (LE: s in [0, +inf); GE: s in (-inf, 0]; EQ: s fixed at 0) and
// column-major (CSC) storage of [A | I]. Nothing is ever shifted,
// complemented or normalized: variable bounds are native in the ratio
// tests, negative right-hand sides are fine, and the solution and duals
// read off in original coordinates. Each iteration prices reduced costs
// with one BTRAN, FTRANs the entering column through the factorized
// basis (see eta.go), and runs the two-sided bounded ratio test; only
// the nonzeros of the touched columns are visited, so per-iteration cost
// scales with the problem's nonzero count instead of the dense kernel's
// m×n tableau sweep.
//
// Phase 1 needs no artificial columns: the all-slack basis is always a
// basis, and a basic slack that violates a bound gets that bound
// temporarily relaxed — working bounds [u, +inf) with cost +1 for a
// value above u, (-inf, l] with cost -1 for a value below l, clamped at
// the violated true bound so the variable cannot overshoot past
// feasibility. Minimizing that cost drives the total violation to zero
// exactly when the problem is feasible; the true bounds are then
// restored in place and the same basis carries into phase 2.
type sparseSolver struct {
	p    *Problem
	m, n int // constraint rows, structural variables
	nTot int // n + m columns (structural + one slack per row)

	// CSC of [A | I].
	ptr []int32
	ind []int32
	val []float64

	obj    []float64 // phase-2 cost per column (structural c, slacks 0)
	cost   []float64 // working cost vector (phase-1 relaxation costs or obj)
	lo, hi []float64 // working bounds per column (phase 1 edits, then restores)
	b      []float64 // right-hand sides
	x      []float64 // current value per column (bound value when nonbasic)
	status []int8    // spLower, spUpper or spBasic
	basis  []int32   // column basic at each position
	f      *basisFactor

	// relaxed records the phase-1 bound relaxations for restore; inPhase1
	// arms the dynamic restoration in primalIterate.
	relaxed  []relaxation
	inPhase1 bool

	tol, dtol float64
	maxIter   int
	pivots    int

	// scratch (all length m)
	vrow, wpos, cpos, yrow []float64
}

type relaxation struct {
	col      int32
	over     bool // true: value above upper bound; false: below lower
	olo, ohi float64
	restored bool // true bounds re-armed (dynamically, or at phase-1 exit)
}

// Nonbasic/basic column statuses.
const (
	spLower int8 = iota // nonbasic at lower bound
	spUpper             // nonbasic at upper bound
	spBasic
)

// newSparse builds the solver state for a validated problem.
func newSparse(p *Problem, opts *Options) *sparseSolver {
	m := len(p.Constraints)
	n := p.NumVars()
	sp := &sparseSolver{
		p: p, m: m, n: n, nTot: n + m,
		obj:     make([]float64, n+m),
		lo:      make([]float64, n+m),
		hi:      make([]float64, n+m),
		b:       make([]float64, m),
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
	copy(sp.obj, p.Objective)

	nnz := m // slack columns
	for i := range p.Constraints {
		for _, v := range p.Constraints[i].Coeffs {
			if v != 0 {
				nnz++
			}
		}
	}
	sp.ptr = make([]int32, n+m+1)
	sp.ind = make([]int32, 0, nnz)
	sp.val = make([]float64, 0, nnz)
	for j := 0; j < n; j++ {
		for i := range p.Constraints {
			if v := p.Constraints[i].Coeffs[j]; v != 0 {
				sp.ind = append(sp.ind, int32(i))
				sp.val = append(sp.val, v)
			}
		}
		sp.ptr[j+1] = int32(len(sp.ind))
		sp.lo[j] = p.LowerBound(j)
		sp.hi[j] = p.UpperBound(j)
	}
	for i := range p.Constraints {
		c := &p.Constraints[i]
		sp.ind = append(sp.ind, int32(i))
		sp.val = append(sp.val, 1)
		sp.ptr[n+i+1] = int32(len(sp.ind))
		sp.b[i] = c.RHS
		switch c.Rel {
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

// colDot returns v·a_j over column j's nonzeros (v in original-row space).
func (sp *sparseSolver) colDot(j int, v []float64) float64 {
	s := 0.0
	for k := sp.ptr[j]; k < sp.ptr[j+1]; k++ {
		s += sp.val[k] * v[sp.ind[k]]
	}
	return s
}

// scatterCol writes column j into the dense row-space vector v (cleared
// first).
func (sp *sparseSolver) scatterCol(j int, v []float64) {
	clear(v)
	for k := sp.ptr[j]; k < sp.ptr[j+1]; k++ {
		v[sp.ind[k]] = sp.val[k]
	}
}

// computeXB recomputes the basic values from the bound-resting nonbasic
// point: B·xB = b - N·x_N, solved through the current factorization.
func (sp *sparseSolver) computeXB() {
	copy(sp.vrow, sp.b)
	for j := 0; j < sp.nTot; j++ {
		if sp.status[j] == spBasic || sp.x[j] == 0 {
			continue
		}
		xj := sp.x[j]
		for k := sp.ptr[j]; k < sp.ptr[j+1]; k++ {
			sp.vrow[sp.ind[k]] -= sp.val[k] * xj
		}
	}
	sp.f.ftran(sp.vrow, sp.wpos)
	for p := 0; p < sp.m; p++ {
		sp.x[sp.basis[p]] = sp.wpos[p]
	}
}

// refactorize rebuilds the eta file and recomputes the basic values; it
// returns false on a numerically singular basis.
func (sp *sparseSolver) refactorize(minPiv float64) bool {
	if !sp.f.refactorize(sp, sp.basis, minPiv) {
		return false
	}
	sp.computeXB()
	return true
}

// objective returns the working objective value c·x.
func (sp *sparseSolver) objective() float64 {
	s := 0.0
	for j, c := range sp.cost {
		if c != 0 {
			s += c * sp.x[j]
		}
	}
	return s
}

// reducedCosts BTRANs the basic working costs into sp.yrow (the duals of
// the working cost vector); d_j = cost_j - yrow·a_j.
func (sp *sparseSolver) reducedCosts() {
	for p := 0; p < sp.m; p++ {
		sp.cpos[p] = sp.cost[sp.basis[p]]
	}
	sp.f.btran(sp.cpos, sp.yrow)
}

// primalIterate runs primal simplex iterations (pivots and bound flips)
// on the working cost vector until optimality, unboundedness, or the
// pivot cap. Entering selection is Dantzig (most-violating reduced cost)
// with a Bland fallback after a stall window without objective progress.
func (sp *sparseSolver) primalIterate() Status {
	const stallWindow = 64
	stall := 0
	lastObj := math.Inf(1)
	retried := false
	for sp.pivots < sp.maxIter {
		bland := stall >= stallWindow
		sp.reducedCosts()
		q, dir := -1, 1.0
		bestViol := sp.tol
		for j := 0; j < sp.nTot; j++ {
			st := sp.status[j]
			if st == spBasic || sp.lo[j] == sp.hi[j] {
				continue
			}
			d := sp.cost[j] - sp.colDot(j, sp.yrow)
			var viol float64
			switch st {
			case spLower:
				viol = -d // entering by increasing improves when d < 0
			case spUpper:
				viol = d // entering by decreasing improves when d > 0
			}
			if viol > bestViol {
				q = j
				if st == spLower {
					dir = 1
				} else {
					dir = -1
				}
				if bland {
					break
				}
				bestViol = viol
			}
		}
		if q < 0 {
			return Optimal
		}

		sp.scatterCol(q, sp.vrow)
		sp.f.ftran(sp.vrow, sp.wpos)

		// Two-sided bounded ratio test: a basic variable blocks by falling
		// to its lower bound (positive step component) or climbing to its
		// finite upper bound (negative component); the entering variable's
		// own span hi-lo competes as a bound flip.
		limit := sp.hi[q] - sp.lo[q]
		bestP := -1
		bestT := math.Inf(1)
		bestAbs := 0.0
		toLower := false
		for p := 0; p < sp.m; p++ {
			g := dir * sp.wpos[p]
			c := sp.basis[p]
			var t float64
			var lower bool
			switch {
			case g > sp.tol:
				l := sp.lo[c]
				if math.IsInf(l, -1) {
					continue
				}
				t, lower = (sp.x[c]-l)/g, true
			case g < -sp.tol:
				h := sp.hi[c]
				if math.IsInf(h, 1) {
					continue
				}
				t, lower = (h-sp.x[c])/(-g), false
			default:
				continue
			}
			if t < 0 {
				t = 0 // roundoff outside the bound: degenerate, not a negative step
			}
			// Tie window: the loosened degeneracy tolerance in the
			// degenerate regime (where cycling lives), the base tolerance
			// away from it; ties prefer the larger pivot magnitude for
			// numerical stability.
			win := sp.tol
			if t < sp.dtol && bestT < sp.dtol {
				win = sp.dtol
			}
			a := math.Abs(sp.wpos[p])
			switch {
			case t < bestT-win:
				bestP, bestT, bestAbs, toLower = p, t, a, lower
			case t < bestT+win && a > bestAbs:
				bestP, bestAbs, toLower = p, a, lower
				if t < bestT {
					bestT = t
				}
			}
		}

		switch {
		case !math.IsInf(limit, 1) && (bestP < 0 || limit <= bestT):
			// The entering variable hits its own opposite bound first:
			// bound flip, no basis change, no eta.
			for p := 0; p < sp.m; p++ {
				if w := sp.wpos[p]; w != 0 {
					sp.x[sp.basis[p]] -= limit * dir * w
				}
			}
			if dir > 0 {
				sp.x[q], sp.status[q] = sp.hi[q], spUpper
			} else {
				sp.x[q], sp.status[q] = sp.lo[q], spLower
			}
			sp.pivots++
		case bestP < 0:
			return Unbounded
		default:
			g := sp.wpos[bestP]
			if math.Abs(g) < sp.dtol && !retried && len(sp.f.updates) > 0 {
				// Tiny pivot through a long eta file: refactorize and
				// re-price before trusting it.
				if !sp.refactorize(sp.tol) {
					return IterLimit
				}
				retried = true
				continue
			}
			retried = false
			leaving := sp.basis[bestP]
			t := bestT
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
			if toLower {
				sp.x[leaving], sp.status[leaving] = sp.lo[leaving], spLower
			} else {
				sp.x[leaving], sp.status[leaving] = sp.hi[leaving], spUpper
			}
			sp.restoreRelax(leaving)
			sp.status[q] = spBasic
			sp.basis[bestP] = int32(q)
			sp.f.update(bestP, sp.wpos)
			sp.pivots++
			if sp.f.needsRefactor() && !sp.refactorize(sp.tol) {
				return IterLimit
			}
		}

		if o := sp.objective(); o < lastObj-sp.tol {
			lastObj = o
			stall = 0
		} else {
			stall++
		}
	}
	return IterLimit
}

// phase1 makes the all-slack starting basis feasible. It returns Optimal
// when a feasible point was reached, Infeasible when the minimized
// violation stays positive, IterLimit otherwise.
func (sp *sparseSolver) phase1() Status {
	// Start: structural variables at their (finite) lower bounds, slacks
	// basic, B = I.
	for j := 0; j < sp.n; j++ {
		sp.status[j] = spLower
		sp.x[j] = sp.lo[j]
	}
	for i := 0; i < sp.m; i++ {
		sp.basis[i] = int32(sp.n + i)
		sp.status[sp.n+i] = spBasic
	}
	sp.f.identity()
	sp.computeXB()

	// Relax the violated basic bounds toward the violated side, clamped
	// at the violated bound, and charge a unit cost for the excursion.
	sp.relaxed = sp.relaxed[:0]
	var phase1Cost []float64
	for p := 0; p < sp.m; p++ {
		c := sp.basis[p]
		v := sp.x[c]
		switch {
		case v > sp.hi[c]+sp.tol:
			if phase1Cost == nil {
				phase1Cost = make([]float64, sp.nTot)
			}
			sp.relaxed = append(sp.relaxed, relaxation{col: c, over: true, olo: sp.lo[c], ohi: sp.hi[c]})
			sp.lo[c], sp.hi[c] = sp.hi[c], math.Inf(1)
			phase1Cost[c] = 1
		case v < sp.lo[c]-sp.tol:
			if phase1Cost == nil {
				phase1Cost = make([]float64, sp.nTot)
			}
			sp.relaxed = append(sp.relaxed, relaxation{col: c, over: false, olo: sp.lo[c], ohi: sp.hi[c]})
			sp.lo[c], sp.hi[c] = math.Inf(-1), sp.lo[c]
			phase1Cost[c] = -1
		}
	}
	if phase1Cost == nil {
		return Optimal // already feasible
	}
	sp.cost = phase1Cost
	sp.inPhase1 = true
	st := sp.primalIterate()
	sp.inPhase1 = false
	if st == IterLimit {
		return IterLimit
	}
	// The phase-1 objective is bounded below, so Unbounded can only be
	// numerical noise — treat it like an iteration failure rather than
	// reporting a wrong status.
	if st == Unbounded {
		return IterLimit
	}

	// Columns restored dynamically are already back under their true
	// bounds; a column still relaxed must have settled at its clamp (the
	// violated true bound), or the problem is infeasible.
	infeas := 0.0
	for _, r := range sp.relaxed {
		if r.restored {
			continue
		}
		v := sp.x[r.col]
		if r.over {
			infeas += math.Max(0, v-r.ohi)
		} else {
			infeas += math.Max(0, r.olo-v)
		}
	}
	if infeas > sp.dtol {
		return Infeasible
	}

	// Restore the bounds of the columns that stayed basic through phase 1:
	// each ended within tolerance of its clamp and keeps its basic seat.
	for i := range sp.relaxed {
		r := &sp.relaxed[i]
		if r.restored {
			continue
		}
		sp.lo[r.col], sp.hi[r.col] = r.olo, r.ohi
		r.restored = true
		if sp.status[r.col] == spBasic {
			continue
		}
		if r.over {
			sp.status[r.col], sp.x[r.col] = spUpper, r.ohi
		} else {
			sp.status[r.col], sp.x[r.col] = spLower, r.olo
		}
	}
	return Optimal
}

// restoreRelax re-arms the true bounds of a phase-1 relaxed column the
// moment it leaves the basis at its clamp (the violated true bound). The
// clamp stops the column exactly at feasibility — but only its true
// bounds let later pivots move it into the feasible interior (a GE-row
// slack crossing below zero when the row is over-satisfied), so the
// working relaxation must not outlive the violation. The column's
// phase-1 cost is dropped with it: it no longer contributes to the
// infeasibility sum being minimized.
func (sp *sparseSolver) restoreRelax(c int32) {
	if !sp.inPhase1 {
		return
	}
	for i := range sp.relaxed {
		r := &sp.relaxed[i]
		if r.restored || r.col != c {
			continue
		}
		sp.lo[c], sp.hi[c] = r.olo, r.ohi
		sp.cost[c] = 0
		r.restored = true
		if r.over {
			sp.status[c], sp.x[c] = spUpper, r.ohi
		} else {
			sp.status[c], sp.x[c] = spLower, r.olo
		}
		return
	}
}

// solve runs the artificial-free phase 1 and then phase 2 on the true
// objective.
func (sp *sparseSolver) solve() (Solution, error) {
	switch sp.phase1() {
	case Infeasible:
		return Solution{Status: Infeasible, Iterations: sp.pivots}, nil
	case IterLimit:
		return Solution{Status: IterLimit, Iterations: sp.pivots}, nil
	}

	sp.cost = sp.obj
	st := sp.primalIterate()
	st = sp.repairPrimal(st)
	switch st {
	case Optimal:
		return sp.solution(false), nil
	case Unbounded:
		return Solution{Status: Unbounded, Iterations: sp.pivots}, nil
	default:
		return Solution{Status: IterLimit, Iterations: sp.pivots}, nil
	}
}

// repairPrimal mirrors the dense kernel's feasibility net: refresh the
// basic values through a clean factorization, and if roundoff drift left
// any basic value outside its bounds, alternate dual and primal pivots
// until both feasibilities hold. An unsettled basis reports IterLimit,
// never a violated "optimum".
func (sp *sparseSolver) repairPrimal(st Status) Status {
	if st != Optimal {
		return st
	}
	for round := 0; round < 4; round++ {
		if len(sp.f.updates) > 0 || round > 0 {
			if !sp.refactorize(sp.tol) {
				return IterLimit
			}
		}
		if sp.withinBounds(sp.tol) {
			return Optimal
		}
		if ds := sp.dualIterate(); ds != Optimal {
			return IterLimit
		}
		if ps := sp.primalIterate(); ps != Optimal {
			return ps
		}
	}
	return IterLimit
}

// withinBounds reports whether every basic value lies within its working
// bounds up to slack.
func (sp *sparseSolver) withinBounds(slack float64) bool {
	for p := 0; p < sp.m; p++ {
		c := sp.basis[p]
		v := sp.x[c]
		if v < sp.lo[c]-slack || v > sp.hi[c]+slack {
			return false
		}
	}
	return true
}

// solution assembles the Optimal result in original coordinates.
func (sp *sparseSolver) solution(warm bool) Solution {
	x := make([]float64, sp.n)
	for j := 0; j < sp.n; j++ {
		v := sp.x[j]
		// Clamp roundoff-sized bound violations (cosmetic, like the dense
		// kernel's negative-rhs clamp).
		if v < sp.lo[j] && v > sp.lo[j]-sp.tol {
			v = sp.lo[j]
		}
		if v > sp.hi[j] && v < sp.hi[j]+sp.tol {
			v = sp.hi[j]
		}
		x[j] = v
	}
	obj := 0.0
	for j, c := range sp.p.Objective {
		obj += c * x[j]
	}
	// Duals: y solves B^T·y = c_B, read directly in original-row space.
	// The reduced cost of slack i is -y_i, so a slack-basic (non-binding)
	// row automatically reports 0.
	sp.cost = sp.obj
	sp.reducedCosts()
	duals := make([]float64, sp.m)
	copy(duals, sp.yrow)
	return Solution{
		Status:     Optimal,
		X:          x,
		Objective:  obj,
		Iterations: sp.pivots,
		Duals:      duals,
		Basis:      sp.snapshot(),
		Warm:       warm,
	}
}

// FactorizedBasis is the sparse kernel's BasisSnapshot. It records the
// logical basis — which column is basic in each row, which structural
// columns rest at their upper bound — not the eta file: restoring is a
// refactorization, which rebuilds numerically fresh state anyway and
// keeps the snapshot valid across the bound patches and appended rows
// SolveFrom supports. The encoding matches the dense *Basis exactly, so
// either kernel restores the other's snapshots.
type FactorizedBasis struct {
	rows  []int32
	flips []int32
	n     int
}

// Rows returns the number of constraint rows the snapshot covers.
func (b *FactorizedBasis) Rows() int { return len(b.rows) }

// Kernel implements BasisSnapshot: the sparse revised-simplex kernel.
func (b *FactorizedBasis) Kernel() Kernel { return KernelSparse }

// data implements BasisSnapshot (nil-safe).
func (b *FactorizedBasis) data() ([]int32, []int32, int) {
	if b == nil {
		return nil, nil, -1
	}
	return b.rows, b.flips, b.n
}

// snapshot captures the current basis as a FactorizedBasis.
func (sp *sparseSolver) snapshot() BasisSnapshot {
	rows := make([]int32, sp.m)
	for p := 0; p < sp.m; p++ {
		c := sp.basis[p]
		if c < int32(sp.n) {
			rows[p] = c
		} else {
			rows[p] = ^(c - int32(sp.n)) // slack of row c-n
		}
	}
	var flips []int32
	for j := 0; j < sp.n; j++ {
		if sp.status[j] == spUpper {
			flips = append(flips, int32(j))
		}
	}
	return &FactorizedBasis{rows: rows, flips: flips, n: sp.n}
}
