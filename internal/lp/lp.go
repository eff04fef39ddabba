package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of a linear constraint.
type Relation int8

// Constraint senses.
const (
	LE Relation = iota // A_i·x <= b_i
	GE                 // A_i·x >= b_i
	EQ                 // A_i·x == b_i
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Relation(%d)", int(r))
}

// Constraint is one dense row A_i·x Rel b_i.
type Constraint struct {
	Coeffs []float64
	Rel    Relation
	RHS    float64
}

// Problem is a linear program over n bounded variables. Variables default
// to the classic non-negative orthant lo = 0, hi = +inf; per-variable
// bounds replace that default when Lo/Hi are set.
type Problem struct {
	// Objective holds the cost vector c; the solver minimizes c·x.
	Objective []float64
	// Constraints holds the rows. Every row's Coeffs must have the same
	// length as Objective.
	Constraints []Constraint
	// Lo and Hi are optional per-variable bounds lo_j <= x_j <= hi_j.
	// Either slice may be nil (every variable takes the default for that
	// side: lo 0, hi +inf) or have exactly NumVars entries. Lower bounds
	// must be finite (they may be negative); upper bounds may be +inf.
	// A variable with Lo[j] == Hi[j] is fixed. Bounds are handled inside
	// the simplex ratio tests, not as constraint rows, so tightening a
	// bound never grows the tableau (see SetBounds and the package doc).
	Lo, Hi []float64
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.Objective) }

// LowerBound returns the effective lower bound of variable j (0 when Lo
// is unset).
func (p *Problem) LowerBound(j int) float64 {
	if p.Lo == nil {
		return 0
	}
	return p.Lo[j]
}

// UpperBound returns the effective upper bound of variable j (+inf when
// Hi is unset).
func (p *Problem) UpperBound(j int) float64 {
	if p.Hi == nil {
		return math.Inf(1)
	}
	return p.Hi[j]
}

// SetBounds installs lo <= x_j <= hi, materializing the Lo/Hi slices from
// the defaults on first use. It does not validate lo <= hi; Validate (and
// therefore Solve) rejects crossed bounds.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	n := p.NumVars()
	if p.Lo == nil {
		p.Lo = make([]float64, n)
	}
	if p.Hi == nil {
		p.Hi = make([]float64, n)
		for k := range p.Hi {
			p.Hi[k] = math.Inf(1)
		}
	}
	p.Lo[j], p.Hi[j] = lo, hi
}

// DefaultBounds reports whether every variable has the default bounds
// lo = 0, hi = +inf (vacuously true when Lo and Hi are nil).
func (p *Problem) DefaultBounds() bool {
	for _, v := range p.Lo {
		if v != 0 {
			return false
		}
	}
	for _, v := range p.Hi {
		if !math.IsInf(v, 1) {
			return false
		}
	}
	return true
}

// Validate checks dimensional consistency, finiteness and bound order.
func (p *Problem) Validate() error {
	n := p.NumVars()
	if n == 0 {
		return errors.New("lp: no variables")
	}
	for _, v := range p.Objective {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("lp: non-finite objective coefficient")
		}
	}
	if p.Lo != nil && len(p.Lo) != n {
		return fmt.Errorf("lp: %d lower bounds for %d variables", len(p.Lo), n)
	}
	if p.Hi != nil && len(p.Hi) != n {
		return fmt.Errorf("lp: %d upper bounds for %d variables", len(p.Hi), n)
	}
	for j := 0; j < n; j++ {
		lo, hi := p.LowerBound(j), p.UpperBound(j)
		if math.IsNaN(lo) || math.IsInf(lo, 0) {
			return fmt.Errorf("lp: variable %d has non-finite lower bound %g", j, lo)
		}
		if math.IsNaN(hi) || math.IsInf(hi, -1) {
			return fmt.Errorf("lp: variable %d has invalid upper bound %g", j, hi)
		}
		if lo > hi {
			return fmt.Errorf("lp: variable %d has crossed bounds [%g, %g]", j, lo, hi)
		}
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != n {
			return fmt.Errorf("lp: constraint %d has %d coefficients, want %d", i, len(c.Coeffs), n)
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("lp: constraint %d has non-finite RHS", i)
		}
		for _, v := range c.Coeffs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lp: constraint %d has non-finite coefficient", i)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	q := &Problem{Objective: append([]float64(nil), p.Objective...)}
	if p.Lo != nil {
		q.Lo = append([]float64(nil), p.Lo...)
	}
	if p.Hi != nil {
		q.Hi = append([]float64(nil), p.Hi...)
	}
	q.Constraints = make([]Constraint, len(p.Constraints))
	for i, c := range p.Constraints {
		q.Constraints[i] = Constraint{
			Coeffs: append([]float64(nil), c.Coeffs...),
			Rel:    c.Rel,
			RHS:    c.RHS,
		}
	}
	return q
}

// Status is the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// IterLimit means the iteration cap was hit before optimality.
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	X          []float64 // structural variable values (valid when Status == Optimal)
	Objective  float64   // c·X
	Iterations int       // total simplex pivots across both phases
	// Duals holds one multiplier per constraint (valid when Status ==
	// Optimal): the shadow price of the constraint's right-hand side.
	// With the minimization convention used here, duals of binding GE
	// rows are >= 0, duals of binding LE rows are <= 0, and equality rows
	// are unrestricted. For default-bound problems b·Duals == Objective
	// at optimality (strong duality); with finite variable bounds the
	// bound multipliers (the reduced costs of variables resting at a
	// bound) contribute the remainder. Rows proven redundant report 0.
	Duals []float64
	// Basis is an opaque snapshot of the optimal basis, restorable on a
	// related problem via SolveFrom (by either kernel — see
	// BasisSnapshot). It is nil when the status is not Optimal or when
	// the basis cannot be re-used (a redundant row, or an artificial
	// variable left basic by a degenerate phase 1 of the dense kernel).
	Basis BasisSnapshot
	// Warm reports that this solution came from SolveFrom's warm-started
	// dual-simplex path; false means a cold two-phase solve produced it
	// (including SolveFrom calls that fell back).
	Warm bool
	// Kernel is the pivot kernel that produced the solution, picked from
	// the problem's constraint-row count (see Solve).
	Kernel Kernel
}

// Options tunes the solver.
type Options struct {
	// Tol is the numerical tolerance for pricing, ratio tests and
	// feasibility checks. Zero means 1e-9.
	Tol float64
	// MaxIter caps the total number of pivots. Zero picks a size-based
	// default.
	MaxIter int
}

func (o *Options) tol() float64 {
	if o == nil || o.Tol == 0 {
		return 1e-9
	}
	return o.Tol
}

func (o *Options) maxIter(m, n int) int {
	if o == nil || o.MaxIter == 0 {
		return 2000 + 200*(m+n)
	}
	return o.MaxIter
}
