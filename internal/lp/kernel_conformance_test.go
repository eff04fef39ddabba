package lp

import (
	"math"
	"testing"
)

// Kernel conformance suite: one shared case table, every case solved by
// both pivot kernels (forced through solveKernel, whatever the row-count
// rule would pick). The kernels are independent implementations (dense
// tableau vs. factorized revised simplex), so agreement on statuses,
// objectives and feasibility across degenerate, bounded, fixed and
// infeasible shapes is the contract that lets the rule pick either one.

type conformanceCase struct {
	name   string
	p      *Problem
	status Status
	obj    float64 // checked when status == Optimal
}

func conformanceCases() []conformanceCase {
	inf := math.Inf(1)
	return []conformanceCase{
		{
			name: "covering",
			p: &Problem{
				Objective: []float64{10, 18, 7},
				Constraints: []Constraint{
					{Coeffs: []float64{1, 1, 1}, Rel: GE, RHS: 7},
					{Coeffs: []float64{1, 0, 2}, Rel: GE, RHS: 4},
				},
			},
			status: Optimal, obj: 49,
		},
		{
			name: "beale-cycling",
			p: &Problem{
				Objective: []float64{-0.75, 150, -0.02, 6},
				Constraints: []Constraint{
					{Coeffs: []float64{0.25, -60, -1.0 / 25, 9}, Rel: LE, RHS: 0},
					{Coeffs: []float64{0.5, -90, -1.0 / 50, 3}, Rel: LE, RHS: 0},
					{Coeffs: []float64{0, 0, 1, 0}, Rel: LE, RHS: 1},
				},
			},
			status: Optimal, obj: -0.05,
		},
		{
			name: "degenerate-ties",
			p: &Problem{
				Objective: []float64{-1, -1, -1},
				Constraints: []Constraint{
					{Coeffs: []float64{1, -1, 0}, Rel: LE, RHS: 1e-8},
					{Coeffs: []float64{1, 0, -1}, Rel: LE, RHS: 3e-8},
					{Coeffs: []float64{1, -1, 0}, Rel: LE, RHS: 2e-8},
					{Coeffs: []float64{0, 1, 0}, Rel: LE, RHS: 1},
					{Coeffs: []float64{0, 0, 1}, Rel: LE, RHS: 1},
					{Coeffs: []float64{1, 0, 0}, Rel: LE, RHS: 1},
				},
			},
			status: Optimal, obj: -3,
		},
		{
			name: "boxed",
			p: &Problem{
				Objective: []float64{-3, -5},
				Constraints: []Constraint{
					{Coeffs: []float64{1, 2}, Rel: LE, RHS: 14},
					{Coeffs: []float64{3, -1}, Rel: GE, RHS: 0},
				},
				Lo: []float64{0, 1},
				Hi: []float64{4, 6},
			},
			status: Optimal, obj: -37, // x=4 (box), y=5 (row 1)
		},
		{
			name: "fixed-variable",
			p: &Problem{
				Objective: []float64{2, 3, 1},
				Constraints: []Constraint{
					{Coeffs: []float64{1, 1, 1}, Rel: GE, RHS: 10},
				},
				Lo: []float64{0, 4, 0},
				Hi: []float64{inf, 4, inf}, // y fixed at 4
			},
			status: Optimal, obj: 18, // y=4 forced, z=6 covers the rest
		},
		{
			name: "negative-lower-bounds",
			p: &Problem{
				Objective: []float64{1, 1},
				Constraints: []Constraint{
					{Coeffs: []float64{1, 1}, Rel: GE, RHS: -3},
					{Coeffs: []float64{1, -1}, Rel: LE, RHS: 4},
				},
				Lo: []float64{-5, -5},
				Hi: []float64{5, 5},
			},
			status: Optimal, obj: -3, // rest on the first row: x+y = -3
		},
		{
			name: "equality-rows",
			p: &Problem{
				Objective: []float64{1, 2, 4},
				Constraints: []Constraint{
					{Coeffs: []float64{1, 1, 1}, Rel: EQ, RHS: 6},
					{Coeffs: []float64{0, 1, 2}, Rel: EQ, RHS: 4},
				},
			},
			status: Optimal, obj: 10, // x=2, y=4, z=0
		},
		{
			name: "negative-rhs",
			p: &Problem{
				Objective: []float64{1, 1},
				Constraints: []Constraint{
					{Coeffs: []float64{-1, -1}, Rel: LE, RHS: -4}, // x+y >= 4
				},
			},
			status: Optimal, obj: 4,
		},
		{
			name: "infeasible-crossed-rows",
			p: &Problem{
				Objective: []float64{1},
				Constraints: []Constraint{
					{Coeffs: []float64{1}, Rel: GE, RHS: 5},
					{Coeffs: []float64{1}, Rel: LE, RHS: 2},
				},
			},
			status: Infeasible,
		},
		{
			name: "infeasible-bounds",
			p: &Problem{
				Objective: []float64{1, 1},
				Constraints: []Constraint{
					{Coeffs: []float64{1, 1}, Rel: GE, RHS: 10},
				},
				Lo: []float64{0, 0},
				Hi: []float64{3, 3},
			},
			status: Infeasible,
		},
		{
			name: "unbounded",
			p: &Problem{
				Objective: []float64{-1, 0},
				Constraints: []Constraint{
					{Coeffs: []float64{0, 1}, Rel: LE, RHS: 5},
				},
			},
			status: Unbounded,
		},
		{
			name: "no-constraints",
			p: &Problem{
				Objective: []float64{3, 2},
				Lo:        []float64{1, -2},
				Hi:        []float64{10, 10},
			},
			status: Optimal, obj: -1, // each variable at its cheap bound
		},
	}
}

func kernelsUnderTest() []Kernel { return []Kernel{KernelDense, KernelSparse} }

func TestKernelConformance(t *testing.T) {
	for _, tc := range conformanceCases() {
		for _, k := range kernelsUnderTest() {
			t.Run(tc.name+"/"+k.String(), func(t *testing.T) {
				sol, err := solveKernel(tc.p, nil, nil, k)
				if err != nil {
					t.Fatalf("Solve: %v", err)
				}
				if sol.Status != tc.status {
					t.Fatalf("status = %v, want %v", sol.Status, tc.status)
				}
				if sol.Kernel != k {
					t.Fatalf("solved on %v, want %v", sol.Kernel, k)
				}
				if tc.status != Optimal {
					return
				}
				if math.Abs(sol.Objective-tc.obj) > 1e-6 {
					t.Fatalf("objective = %g, want %g", sol.Objective, tc.obj)
				}
				checkFeasibleBounded(t, tc.p, sol.X)
				dot := 0.0
				for j, c := range tc.p.Objective {
					dot += c * sol.X[j]
				}
				if math.Abs(dot-sol.Objective) > 1e-6 {
					t.Fatalf("objective %g does not match c·x = %g", sol.Objective, dot)
				}
				if len(sol.Duals) != len(tc.p.Constraints) {
					t.Fatalf("got %d duals for %d rows", len(sol.Duals), len(tc.p.Constraints))
				}
			})
		}
	}
}

// checkFeasibleBounded is checkFeasible plus the variable bounds (the
// conformance cases use non-default boxes, which checkFeasible's
// x >= 0 assumption does not cover).
func checkFeasibleBounded(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	for j, v := range x {
		if v < p.LowerBound(j)-1e-6 || v > p.UpperBound(j)+1e-6 {
			t.Fatalf("x[%d] = %g outside [%g, %g]", j, v, p.LowerBound(j), p.UpperBound(j))
		}
	}
	for i, c := range p.Constraints {
		dot := 0.0
		for j, a := range c.Coeffs {
			dot += a * x[j]
		}
		switch c.Rel {
		case LE:
			if dot > c.RHS+1e-6 {
				t.Fatalf("row %d: %g > %g", i, dot, c.RHS)
			}
		case GE:
			if dot < c.RHS-1e-6 {
				t.Fatalf("row %d: %g < %g", i, dot, c.RHS)
			}
		case EQ:
			if math.Abs(dot-c.RHS) > 1e-6 {
				t.Fatalf("row %d: %g != %g", i, dot, c.RHS)
			}
		}
	}
}

// TestKernelsAgreeOnDuals: on a non-degenerate instance the dual vector
// is unique, so the kernels must agree on it exactly (up to roundoff) —
// not just on the primal objective.
func TestKernelsAgreeOnDuals(t *testing.T) {
	p := &Problem{
		Objective: []float64{10, 18, 7},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1, 1}, Rel: GE, RHS: 7},
			{Coeffs: []float64{1, 0, 2}, Rel: GE, RHS: 4},
		},
	}
	dense, err := solveKernel(p, nil, nil, KernelDense)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := solveKernel(p, nil, nil, KernelSparse)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dense.Duals {
		if math.Abs(dense.Duals[i]-sparse.Duals[i]) > 1e-9 {
			t.Errorf("dual %d: dense %g, sparse %g", i, dense.Duals[i], sparse.Duals[i])
		}
	}
}

// TestCrossKernelWarmStart restores each kernel's snapshot with the
// OTHER kernel (and with itself) across a bound-tightened child problem:
// the snapshot encoding is kernel-neutral, so all four combinations must
// reach the cold optimum. Warm-path usage is required only for the
// same-kernel restores; a cross-kernel restore may fall back cold (e.g.
// the dense tableau cannot restore an EQ-row slack basis), but must stay
// correct when it does.
func TestCrossKernelWarmStart(t *testing.T) {
	base := &Problem{
		Objective: []float64{10, 18, 7},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1, 1}, Rel: GE, RHS: 7},
			{Coeffs: []float64{1, 0, 2}, Rel: GE, RHS: 4},
		},
	}
	child := base.Clone()
	child.SetBounds(2, 0, 3) // cap z below its relaxed value

	for _, from := range kernelsUnderTest() {
		parent, err := solveKernel(base, nil, nil, from)
		if err != nil {
			t.Fatal(err)
		}
		if parent.Status != Optimal || parent.Basis == nil {
			t.Fatalf("%v parent not warm-startable: %+v", from, parent)
		}
		if got := parent.Basis.Kernel(); got != from {
			t.Fatalf("snapshot reports kernel %v, want %v", got, from)
		}
		for _, to := range kernelsUnderTest() {
			cold, err := solveKernel(child, nil, nil, to)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := solveKernel(child, parent.Basis, nil, to)
			if err != nil {
				t.Fatalf("%v->%v SolveFrom: %v", from, to, err)
			}
			if warm.Status != Optimal {
				t.Fatalf("%v->%v status = %v", from, to, warm.Status)
			}
			if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
				t.Fatalf("%v->%v objective = %g, cold = %g", from, to, warm.Objective, cold.Objective)
			}
			if from == to && !warm.Warm {
				t.Errorf("%v->%v fell back cold on a same-kernel restore", from, to)
			}
			checkFeasibleBounded(t, child, warm.X)
		}
	}
}

// TestCrossKernelWarmStartAppendedRows runs the cross-kernel restore over
// the branch-and-bound row shape: the child appends a bound row, so the
// snapshot covers fewer rows than the child problem.
func TestCrossKernelWarmStartAppendedRows(t *testing.T) {
	base := &Problem{
		Objective: []float64{10, 18, 7},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1, 1}, Rel: GE, RHS: 7},
			{Coeffs: []float64{1, 0, 2}, Rel: GE, RHS: 4},
		},
	}
	child := base.Clone()
	child.Constraints = append(child.Constraints, Constraint{
		Coeffs: []float64{0, 0, 1}, Rel: LE, RHS: 3,
	})
	for _, from := range kernelsUnderTest() {
		parent, err := solveKernel(base, nil, nil, from)
		if err != nil {
			t.Fatal(err)
		}
		for _, to := range kernelsUnderTest() {
			cold, err := solveKernel(child, nil, nil, to)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := solveKernel(child, parent.Basis, nil, to)
			if err != nil {
				t.Fatalf("%v->%v SolveFrom: %v", from, to, err)
			}
			if warm.Status != Optimal || math.Abs(warm.Objective-cold.Objective) > 1e-6 {
				t.Fatalf("%v->%v: %v obj %g, cold %g", from, to, warm.Status, warm.Objective, cold.Objective)
			}
		}
	}
}

// TestKernelResolution pins the kernel rule at its threshold: Solve and
// SolveFrom run the dense tableau on a 12-row LP and the sparse kernel on
// a 13-row one, and Solution.Kernel reports the kernel that ran.
func TestKernelResolution(t *testing.T) {
	for _, tc := range []struct {
		rows int
		want Kernel
	}{{denseMaxRows, KernelDense}, {denseMaxRows + 1, KernelSparse}} {
		// min Σx s.t. x_0 + x_1 >= i+1 for every row i: optimum rows.
		p := &Problem{Objective: []float64{1, 1}}
		for i := 0; i < tc.rows; i++ {
			p.Constraints = append(p.Constraints, Constraint{Coeffs: []float64{1, 1}, Rel: GE, RHS: float64(i + 1)})
		}
		if got := kernelFor(tc.rows); got != tc.want {
			t.Errorf("kernelFor(%d) = %v, want %v", tc.rows, got, tc.want)
		}
		cold, err := Solve(p, nil)
		if err != nil || cold.Status != Optimal || math.Abs(cold.Objective-float64(tc.rows)) > 1e-9 {
			t.Fatalf("%d rows: Solve = %v, %v obj %g", tc.rows, err, cold.Status, cold.Objective)
		}
		if cold.Kernel != tc.want || cold.Basis.Kernel() != tc.want {
			t.Errorf("%d rows: Solve ran %v (snapshot %v), want %v", tc.rows, cold.Kernel, cold.Basis.Kernel(), tc.want)
		}
		warm, err := SolveFrom(p, cold.Basis, nil)
		if err != nil || warm.Kernel != tc.want || !warm.Warm {
			t.Errorf("%d rows: SolveFrom ran %v (warm %v, err %v), want a warm %v", tc.rows, warm.Kernel, warm.Warm, err, tc.want)
		}
	}
}

// TestStatusErr pins the typed sentinel mapping callers errors.Is
// against.
func TestStatusErr(t *testing.T) {
	if err := Optimal.Err(); err != nil {
		t.Errorf("Optimal.Err() = %v", err)
	}
	for st, want := range map[Status]error{
		Infeasible: ErrInfeasible,
		Unbounded:  ErrUnbounded,
		IterLimit:  ErrIterLimit,
	} {
		if err := st.Err(); err != want {
			t.Errorf("%v.Err() = %v, want %v", st, err, want)
		}
	}
}
