package lp

import (
	"errors"
	"fmt"
)

// Two pivot kernels.
//
// The simplex engine comes in two implementations behind one API: the
// dense bounded-variable tableau (simplex.go) and the sparse revised
// simplex with a factorized basis (sparse.go). Solve and SolveFrom pick
// one per problem by its constraint-row count (kernelFor); nothing else
// selects a kernel. Warm starts cross kernels freely: BasisSnapshot is a
// kernel-neutral logical encoding of the optimal vertex, and each kernel
// restores it its own way (the dense tableau re-pivots, the sparse
// kernel refactorizes).

// Kernel names a simplex pivot-kernel implementation. It is reported,
// never chosen: Solution.Kernel and BasisSnapshot.Kernel say which
// kernel did the work.
type Kernel int8

// The kernels.
const (
	// KernelDense is the dense bounded-variable tableau: every pivot
	// touches all m×(n+slack+artificial) entries.
	KernelDense Kernel = iota
	// KernelSparse is the sparse revised simplex: column-major constraint
	// storage, a product-form factorized basis with eta-file updates and
	// periodic refactorization, Dantzig pricing. Per-iteration cost scales
	// with the nonzero count, not m×n.
	KernelSparse
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case KernelDense:
		return "dense"
	case KernelSparse:
		return "sparse"
	}
	return fmt.Sprintf("Kernel(%d)", int(k))
}

// denseMaxRows is the largest constraint-row count solved on the dense
// tableau; larger LPs go to the sparse kernel. A sweep of solve.ILP (root
// cuts off, 1 worker) over recipe MILPs of growing type count put sparse
// time over dense time at 1.04 and 0.97 at 13 rows, 0.88 and 0.72 at 17
// rows, and at most 0.95 from 25 rows up. On the ≤6-row Table 3 and
// Fig. 3 instances of the end-to-end paper-sweep workload the dense
// kernel sustains 1.37× the solves per second of the sparse one (1577 vs
// 1154 on a 2-core Xeon). A second sweep with presolve on over Fig. 3-
// and Fig. 6-scale families (same box, 300-node cap) found sparse/dense
// 0.86–1.16 at 6–9 rows and 0.86–0.88 at 12, so the crossover may lie
// below 12; no benchmark workload has an LP of 10 to 50 rows to settle
// it.
const denseMaxRows = 12

// kernelFor picks the kernel for an LP with m constraint rows.
func kernelFor(m int) Kernel {
	if m <= denseMaxRows {
		return KernelDense
	}
	return KernelSparse
}

// Typed error sentinels for the non-optimal solve outcomes. The kernels
// report outcomes through Solution.Status; Status.Err maps a status to
// its sentinel so callers can escalate with %w and test with errors.Is
// instead of matching strings.
var (
	// ErrInfeasible: the constraints admit no point within the bounds.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrUnbounded: the objective decreases without bound.
	ErrUnbounded = errors.New("lp: unbounded")
	// ErrIterLimit: the pivot cap was hit before optimality.
	ErrIterLimit = errors.New("lp: iteration limit")
)

// Err returns the typed sentinel for a non-Optimal status, nil for
// Optimal (and for unknown status values).
func (s Status) Err() error {
	switch s {
	case Infeasible:
		return ErrInfeasible
	case Unbounded:
		return ErrUnbounded
	case IterLimit:
		return ErrIterLimit
	}
	return nil
}

// BasisSnapshot is an opaque snapshot of an optimal simplex basis,
// restorable on a related problem via SolveFrom (same structural
// variables; constraint rows may be appended and right-hand sides and
// variable bounds may move). Snapshots are kernel-neutral: a snapshot
// taken by one kernel warm-starts the other, because the encoding is the
// logical vertex (which column is basic in each row, which structural
// columns rest at their upper bound), not kernel state. The dense kernel
// restores by re-pivoting the tableau; the sparse kernel restores by
// refactorizing the basis matrix. The interface is sealed: the two
// implementations are *Basis (dense) and *FactorizedBasis (sparse).
type BasisSnapshot interface {
	// Rows returns the number of constraint rows the snapshot covers.
	Rows() int
	// Kernel identifies the kernel that took the snapshot.
	Kernel() Kernel
	// data exposes the logical encoding to the kernels (sealing method):
	// rows[i] >= 0 names structural column rows[i] basic in row i, and
	// rows[i] < 0 names the slack/surplus column of constraint row
	// ^rows[i]; flips lists the structural columns resting at (or
	// measured from) their upper bound; n is the structural variable
	// count. A nil snapshot returns n < 0.
	data() (rows []int32, flips []int32, n int)
}

// Solve minimizes the problem, on the dense tableau when it has at most
// denseMaxRows constraint rows and on the sparse kernel otherwise. It is
// NewModel(p) plus one model solve under p's bounds.
func Solve(p *Problem, opts *Options) (Solution, error) {
	return SolveFrom(p, nil, opts)
}

// SolveFrom re-optimizes p starting from a basis snapshotted on a related
// problem: same structural variables, constraint rows that extend the
// snapshot's rows (identical prefix, new rows appended, right-hand sides
// free to move), and variable bounds free to move — the branch-and-bound
// child shape of one tightened bound included. The kernel is picked as
// in Solve. Rejected warm starts (nil or mismatched snapshot, a singular
// restore, lost dual feasibility, or an iteration limit) fall back
// transparently to the cold two-phase Solve; Solution.Warm reports which
// path produced the result, and the pivots a rejected warm attempt spent
// are folded into Iterations so warm-vs-cold comparisons stay honest.
// Repeated solves over the same objective and rows should build one
// Model and call Model.SolveFrom instead.
func SolveFrom(p *Problem, b BasisSnapshot, opts *Options) (Solution, error) {
	return solveKernel(p, b, opts, kernelFor(len(p.Constraints)))
}

// solveKernel is SolveFrom (Solve when b is nil) on kernel k; tests call
// it to force each kernel.
func solveKernel(p *Problem, b BasisSnapshot, opts *Options, k Kernel) (Solution, error) {
	md, err := newModel(p, k)
	if err != nil {
		return Solution{}, err
	}
	return md.SolveFrom(p.Lo, p.Hi, b, opts)
}

// snapOrNil converts a possibly-nil *Basis into a BasisSnapshot without
// ever producing a non-nil interface around a nil pointer (callers test
// Solution.Basis == nil).
func snapOrNil(b *Basis) BasisSnapshot {
	if b == nil {
		return nil
	}
	return b
}
