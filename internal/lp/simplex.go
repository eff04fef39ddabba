package lp

import "math"

// tableau is a dense bounded-variable simplex tableau. Columns are
// ordered: structural variables [0,n), slack/surplus variables
// [n, n+numSlack), artificial variables [n+numSlack, total). The
// right-hand side is stored separately and holds the *value* of each
// row's basic variable.
//
// Variable bounds never appear as rows. The tableau works in shifted
// coordinates y_j = x_j - lo_j (so every variable has lower bound 0 and
// capacity cap_j = hi_j - lo_j), and a nonbasic variable resting at its
// upper bound is complemented: its column and reduced cost are negated
// and the basic values absorb cap_j, so the complemented variable again
// counts up from zero. With that representation every nonbasic variable
// sits at 0, entering variables always increase, leaving variables always
// leave at 0 — the pivot kernel is the classic one, and bounds surface
// only in the ratio tests (chooseLeaving, dualIterate) and in the bound
// flips (flipBound, complementRow).
type tableau struct {
	m, n      int // constraint rows, structural variables
	total     int // all columns
	artStart  int // first artificial column
	a         [][]float64
	rhs       []float64
	basis     []int // basis[i] = column basic in row i
	obj       []float64
	objVal    float64 // objective value of the current basis (for the current cost row, shifted coordinates)
	objBase   float64 // c·lo, added back when reporting Solution.Objective
	tol       float64
	maxIter   int
	pivots    int
	inPhase1  bool
	redundant []bool    // rows proven redundant in phase 1 (skipped afterwards)
	rowAux    []int     // per row: its slack/surplus/artificial column
	rowAuxNeg []bool    // per row: aux column has coefficient -1 (surplus)
	rowFlip   []bool    // per row: normalization multiplied the row by -1
	shift     []float64 // per structural column: the variable's lower bound (nil when all zero)
	cap       []float64 // per column: upper bound minus lower bound (+inf when unbounded above)
	flipped   []bool    // per column: complemented (counts down from its upper bound)
}

// newTableau builds the initial tableau with slack and artificial columns
// and a feasible starting basis for phase 1: every structural variable at
// its lower bound, slacks basic on LE rows, artificials basic elsewhere.
func newTableau(p *Problem, opts *Options) *tableau {
	m := len(p.Constraints)
	n := p.NumVars()

	// Shift structural variables to their lower bounds. adjRHS[i] is row
	// i's right-hand side in shifted coordinates, computed once and used
	// by both passes below; rows are then normalized to adjRHS >= 0.
	var shift []float64
	objBase := 0.0
	if p.Lo != nil {
		shift = p.Lo
		for j, lo := range shift {
			objBase += p.Objective[j] * lo
		}
	}
	adjRHS := make([]float64, m)
	for i := range p.Constraints {
		c := &p.Constraints[i]
		rhs := c.RHS
		for j, lo := range shift {
			if lo != 0 {
				rhs -= c.Coeffs[j] * lo
			}
		}
		adjRHS[i] = rhs
	}

	// Count auxiliary columns.
	numSlack, numArt := 0, 0
	for i := range p.Constraints {
		rel := p.Constraints[i].Rel
		if adjRHS[i] < 0 {
			rel = flip(rel)
		}
		switch rel {
		case LE:
			numSlack++ // slack enters the basis directly
		case GE:
			numSlack++ // surplus
			numArt++
		case EQ:
			numArt++
		}
	}

	t := &tableau{
		m: m, n: n,
		total:     n + numSlack + numArt,
		artStart:  n + numSlack,
		tol:       opts.tol(),
		maxIter:   opts.maxIter(m, n),
		basis:     make([]int, m),
		obj:       make([]float64, n+numSlack+numArt), // zero objective until setObjective (pivots may run first during a basis restore)
		objBase:   objBase,
		rhs:       make([]float64, m),
		redundant: make([]bool, m),
		rowAux:    make([]int, m),
		rowAuxNeg: make([]bool, m),
		rowFlip:   make([]bool, m),
		shift:     shift,
		cap:       make([]float64, n+numSlack+numArt),
		flipped:   make([]bool, n+numSlack+numArt),
	}
	for j := range t.cap {
		t.cap[j] = math.Inf(1)
	}
	if p.Hi != nil {
		for j, hi := range p.Hi {
			lo := 0.0
			if shift != nil {
				lo = shift[j]
			}
			t.cap[j] = hi - lo
		}
	}
	// All rows live in one backing slice: a single allocation per tableau
	// keeps the pivot loops cache-friendly and makes every solve's mutable
	// state private to that solve (workers never share tableau memory).
	backing := make([]float64, m*t.total)
	t.a = make([][]float64, m)
	slackCol := n
	artCol := t.artStart
	for i := range p.Constraints {
		c := &p.Constraints[i]
		row := backing[i*t.total : (i+1)*t.total : (i+1)*t.total]
		sign := 1.0
		rel := c.Rel
		rhs := adjRHS[i]
		if rhs < 0 {
			sign = -1.0
			rel = flip(rel)
			rhs = -rhs
		}
		for j, v := range c.Coeffs {
			row[j] = sign * v
		}
		t.rowFlip[i] = sign < 0
		switch rel {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			t.rowAux[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			t.rowAux[i] = slackCol
			t.rowAuxNeg[i] = true
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			t.rowAux[i] = artCol
			artCol++
		}
		t.a[i] = row
		t.rhs[i] = rhs
	}
	return t
}

func flip(r Relation) Relation {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	}
	return EQ
}

// setObjective installs the cost vector (shorter slices are zero-padded)
// and prices out the current basis so reduced costs are consistent. The
// cost coefficient of a complemented column is negated (the variable
// counts down from its upper bound) and its constant contribution
// cost·cap folds into objVal. The objective row allocated by newTableau
// is reused across phases.
func (t *tableau) setObjective(cost []float64) {
	clear(t.obj)
	copy(t.obj, cost)
	t.objVal = 0
	for j := 0; j < t.total; j++ {
		if t.flipped[j] && t.obj[j] != 0 {
			t.objVal += t.obj[j] * t.cap[j]
			t.obj[j] = -t.obj[j]
		}
	}
	for i := 0; i < t.m; i++ {
		cb := t.obj[t.basis[i]]
		if cb == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.total; j++ {
			t.obj[j] -= cb * row[j]
		}
		t.objVal += cb * t.rhs[i]
	}
}

// pivot performs a basis exchange at (row, col). The entering variable is
// always at value 0 (lower bound in complemented coordinates) and the
// leaving variable always leaves at 0 — complementRow has already
// rewritten a row whose basic leaves at its upper bound — so the classic
// update applies verbatim to the value-semantics rhs.
func (t *tableau) pivot(row, col int) {
	prow := t.a[row]
	pval := prow[col]
	inv := 1.0 / pval
	for j := 0; j < t.total; j++ {
		prow[j] *= inv
	}
	prow[col] = 1 // exact
	t.rhs[row] *= inv
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		arow := t.a[i]
		for j := 0; j < t.total; j++ {
			arow[j] -= f * prow[j]
		}
		arow[col] = 0 // exact
		t.rhs[i] -= f * t.rhs[row]
		if t.rhs[i] < 0 && t.rhs[i] > -t.tol {
			t.rhs[i] = 0
		}
	}
	f := t.obj[col]
	if f != 0 {
		for j := 0; j < t.total; j++ {
			t.obj[j] -= f * prow[j]
		}
		t.obj[col] = 0
		t.objVal += f * t.rhs[row]
	}
	t.basis[row] = col
	t.pivots++
}

// flipBound moves the nonbasic column col from its current bound to the
// opposite one — the third outcome of the bounded ratio test, when the
// entering variable hits its own bound before any basic row blocks it.
// No pivot happens: the basic values absorb the full step cap_col, the
// column and its reduced cost negate (complement representation), and the
// objective improves by rc·cap. O(m) instead of a pivot's O(m·n); counts
// as one iteration.
func (t *tableau) flipBound(col int) {
	u := t.cap[col]
	for i := 0; i < t.m; i++ {
		row := t.a[i]
		if v := row[col]; v != 0 {
			t.rhs[i] -= v * u
			row[col] = -v
			if t.rhs[i] < 0 && t.rhs[i] > -t.tol {
				t.rhs[i] = 0
			}
		}
	}
	t.objVal += t.obj[col] * u
	t.obj[col] = -t.obj[col]
	t.flipped[col] = !t.flipped[col]
	t.pivots++
}

// complementRow rewrites row r around the upper bound of its basic
// variable: in complemented coordinates the variable leaves at 0, so the
// standard pivot applies afterwards. Only row r changes (a basic column
// is zero elsewhere and its reduced cost is already zero).
func (t *tableau) complementRow(r int) {
	b := t.basis[r]
	row := t.a[r]
	for j := range row {
		if j != b && row[j] != 0 {
			row[j] = -row[j]
		}
	}
	t.rhs[r] = t.cap[b] - t.rhs[r]
	if t.rhs[r] < 0 && t.rhs[r] > -t.tol {
		t.rhs[r] = 0
	}
	t.flipped[b] = !t.flipped[b]
}

// iterate runs primal simplex iterations (pivots and bound flips) on the
// current objective until optimality, unboundedness, or the iteration
// cap. forbid reports columns that may not enter the basis (artificials
// during phase 2).
func (t *tableau) iterate(forbid func(col int) bool) Status {
	// Switch to Bland's rule after a grace period without objective
	// progress, to break degenerate cycles.
	const stallWindow = 64
	stall := 0
	lastObj := math.Inf(1)
	for t.pivots < t.maxIter {
		bland := stall >= stallWindow
		col := t.chooseEntering(forbid, bland)
		if col < 0 {
			return Optimal
		}
		row, toUpper, ratio := t.chooseLeaving(col)
		switch {
		case !math.IsInf(t.cap[col], 1) && (row < 0 || t.cap[col] <= ratio):
			// The entering variable hits its own opposite bound first.
			t.flipBound(col)
		case row < 0:
			return Unbounded
		default:
			if toUpper {
				t.complementRow(row)
			}
			t.pivot(row, col)
		}
		if t.objVal < lastObj-t.tol {
			lastObj = t.objVal
			stall = 0
		} else {
			stall++
		}
	}
	return IterLimit
}

// chooseEntering picks the entering column: most negative reduced cost
// (Dantzig) or first negative (Bland). In the complement representation
// every nonbasic variable sits at 0 and can only increase, so the
// classic single-sided test covers at-upper variables too (their reduced
// costs are stored negated).
func (t *tableau) chooseEntering(forbid func(int) bool, bland bool) int {
	best := -1
	bestVal := -t.tol
	for j := 0; j < t.total; j++ {
		if forbid != nil && forbid(j) {
			continue
		}
		rc := t.obj[j]
		if rc < bestVal {
			if bland {
				return j
			}
			best, bestVal = j, rc
		}
	}
	return best
}

// chooseLeaving runs the two-sided bounded ratio test on the entering
// column. A basic variable blocks the step either by falling to 0
// (positive column entry) or by climbing to its finite capacity
// (negative entry); the smaller ratio wins, and the caller separately
// compares against the entering variable's own capacity (bound flip).
// Returns the blocking row, whether its basic leaves at the upper bound,
// and the winning ratio (+inf when no row blocks).
//
// Ties break toward the smallest basis variable index (lexicographic
// safeguard that pairs with Bland's rule). Tie detection uses the shared
// degeneracy tolerance, but only in the degenerate regime (both ratios
// within degenTol of zero): that is where cycling lives, and where
// roundoff-blurred zeros must still be recognized as the same degenerate
// pivot for the lexicographic ordering to bite. Away from zero the
// window stays at the base tolerance — treating genuinely different
// ratios as ties would pivot past the true minimum and push another
// row's right-hand side out of its bounds beyond the feasibility
// guarantee.
func (t *tableau) chooseLeaving(col int) (int, bool, float64) {
	bestRow := -1
	bestUpper := false
	bestRatio := math.Inf(1)
	dt := t.degenTol()
	for i := 0; i < t.m; i++ {
		if t.redundant[i] {
			continue
		}
		aij := t.a[i][col]
		var ratio float64
		var upper bool
		switch {
		case aij > t.tol:
			ratio = t.rhs[i] / aij
			if ratio < 0 {
				ratio = 0 // roundoff-negative rhs: degenerate, not a negative step
			}
		case aij < -t.tol:
			cb := t.cap[t.basis[i]]
			if math.IsInf(cb, 1) {
				continue // unbounded above: never blocks from below
			}
			room := cb - t.rhs[i]
			if room < 0 {
				room = 0
			}
			ratio, upper = room/(-aij), true
		default:
			continue
		}
		win := t.tol
		if ratio < dt && bestRatio < dt {
			win = dt
		}
		switch {
		case ratio < bestRatio-win:
			bestRow, bestUpper, bestRatio = i, upper, ratio
		case ratio < bestRatio+win && (bestRow < 0 || t.basis[i] < t.basis[bestRow]):
			// Tied within the window: take the lexicographically smaller
			// row but keep the true minimum ratio as the reference, so
			// chained ties cannot drift the window upward.
			bestRow, bestUpper = i, upper
			if ratio < bestRatio {
				bestRatio = ratio
			}
		}
	}
	return bestRow, bestUpper, bestRatio
}

// extractX recovers the structural solution in original coordinates:
// un-complement flipped columns, then undo the lower-bound shift.
func (t *tableau) extractX() []float64 {
	x := make([]float64, t.n)
	for j := 0; j < t.n; j++ {
		if t.flipped[j] {
			x[j] = t.cap[j]
		}
	}
	for i := 0; i < t.m; i++ {
		if b := t.basis[i]; b < t.n {
			if t.flipped[b] {
				x[b] = t.cap[b] - t.rhs[i]
			} else {
				x[b] = t.rhs[i]
			}
		}
	}
	if t.shift != nil {
		for j, lo := range t.shift {
			x[j] += lo
		}
	}
	return x
}

// withinBounds reports whether every non-redundant basic value lies in
// [0, cap] up to slack.
func (t *tableau) withinBounds(slack float64) bool {
	for i := 0; i < t.m; i++ {
		if t.redundant[i] {
			continue
		}
		if t.rhs[i] < -slack {
			return false
		}
		if cb := t.cap[t.basis[i]]; t.rhs[i] > cb+slack {
			return false
		}
	}
	return true
}

// solve runs phase 1 (if artificials exist) then phase 2.
func (t *tableau) solve(p *Problem) (Solution, error) {
	if t.artStart < t.total {
		// Phase 1: minimize the sum of artificial variables.
		phase1 := make([]float64, t.total)
		for j := t.artStart; j < t.total; j++ {
			phase1[j] = 1
		}
		t.inPhase1 = true
		t.setObjective(phase1)
		st := t.iterate(nil)
		if st == IterLimit {
			return Solution{Status: IterLimit, Iterations: t.pivots}, nil
		}
		if t.objVal > t.degenTol() {
			return Solution{Status: Infeasible, Iterations: t.pivots}, nil
		}
		t.evictArtificials()
		t.inPhase1 = false
	}

	// Phase 2: original objective; artificials may not re-enter.
	t.setObjective(p.Objective)
	forbid := func(col int) bool { return col >= t.artStart }
	st := t.repairPrimal(t.iterate(forbid), forbid)
	switch st {
	case Optimal:
		return Solution{Status: Optimal, X: t.extractX(), Objective: t.objVal + t.objBase, Iterations: t.pivots, Duals: t.duals(), Basis: snapOrNil(t.snapshotBasis())}, nil
	case Unbounded:
		return Solution{Status: Unbounded, Iterations: t.pivots}, nil
	default:
		return Solution{Status: IterLimit, Iterations: t.pivots}, nil
	}
}

// duals recovers one multiplier per original constraint from the final
// reduced-cost row: the reduced cost of a row's auxiliary column equals
// -+y_i for a +-1 coefficient, and a flipped (negative-RHS) row negates
// the multiplier back into the original row's terms. Slack columns are
// never complemented (their capacity is infinite), so the recovery is
// unaffected by variable bounds; bound duals live in the reduced costs
// of the structural columns instead.
func (t *tableau) duals() []float64 {
	y := make([]float64, t.m)
	for i := 0; i < t.m; i++ {
		if t.redundant[i] {
			continue
		}
		rc := t.obj[t.rowAux[i]]
		v := -rc
		if t.rowAuxNeg[i] {
			v = rc
		}
		if t.rowFlip[i] {
			v = -v
		}
		y[i] = v
	}
	return y
}

// evictArtificials removes artificial variables from the basis after a
// successful phase 1. A basic artificial at value zero is pivoted out on
// any usable column of its row; if the row has no such column it is
// linearly dependent on the others and is marked redundant.
func (t *tableau) evictArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[i][j]) > t.degenTol() {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			t.redundant[i] = true
		}
	}
}

// sqrtTol loosens the base tolerance for aggregate feasibility decisions.
func sqrtTol(tol float64) float64 {
	return math.Sqrt(tol)
}

// degenTol is the shared degeneracy tolerance: the width used to call two
// quantities "equal up to roundoff" in tie-breaking, basis-restore pivot
// admission and warm-start verification. It is deliberately the same
// loosened sqrtTol scale as the phase-1 feasibility decision so every
// degeneracy judgement in the solver agrees.
func (t *tableau) degenTol() float64 {
	return sqrtTol(t.tol)
}
