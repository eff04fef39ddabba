// Package lp implements a two-phase simplex solver for linear programs
// in the form
//
//	minimize    c·x
//	subject to  A_i·x {<=,>=,=} b_i   for every constraint i
//	            lo_j <= x_j <= hi_j   for every variable j
//
// with the classic non-negative orthant (lo = 0, hi = +inf) as the
// default when no bounds are given. It is the linear-programming
// substrate under the branch-and-bound MILP solver (package milp), which
// together replace the commercial ILP solver (Gurobi) used by the paper.
// See the repository's ARCHITECTURE.md for where this package sits in
// the stack.
//
// # Pivot kernels
//
// The simplex mechanics come in two kernels, independent implementations
// of the same contract — same statuses, same optimal objectives,
// interchangeable basis snapshots — that differ only in how they
// represent the problem and the basis:
//
//   - KernelDense is a dense bounded-variable tableau. Every pivot
//     rewrites an explicit m×n tableau, which is cheap and
//     cache-friendly on LPs with few rows.
//   - KernelSparse is a sparse revised simplex: column-major (CSC)
//     storage of the constraint matrix, an LU-style product-form
//     factorization of the basis updated with eta files and periodically
//     refactorized, and Dantzig pricing over reduced costs obtained by
//     BTRAN. Per-iteration work scales with the matrix's nonzero count
//     instead of m×n, which wins once the LP has more rows (many recipe
//     graphs over many machine types).
//
// No option selects a kernel. Solve and SolveFrom apply one measured
// rule: the dense tableau for an LP with at most 12 constraint rows, the
// sparse kernel for anything larger (see denseMaxRows for the sweep
// behind the threshold). Solution.Kernel reports which kernel ran.
// Status values map to typed sentinel errors (ErrInfeasible,
// ErrUnbounded, ErrIterLimit) via Status.Err, so callers can errors.Is
// against outcomes that cross API layers.
//
// # The dense kernel
//
// The dense tableau is built with one slack/surplus column per
// inequality row and one artificial column per row that lacks an
// identity start (GE and EQ rows); all rows share a single backing slice
// so a solve touches one allocation and no memory outside its own
// tableau. Phase 1 minimizes the artificial sum, evicts leftover basic
// artificials (marking linearly dependent rows redundant), and phase 2
// re-prices the true objective with artificials forbidden from
// re-entering.
//
// Variable bounds never become constraint rows. The tableau works in
// shifted coordinates y_j = x_j - lo_j, so every variable has lower
// bound 0 and capacity cap_j = hi_j - lo_j, and a nonbasic variable
// resting at its upper bound is complemented: its column and reduced
// cost are negated and the basic values absorb cap_j. Every nonbasic
// variable therefore sits at 0 and the pivot kernel is the classic one;
// bounds surface only in the two-sided ratio tests and the O(m) bound
// flips. Entering columns use Dantzig pricing until a stall window
// expires, then Bland's rule; all degeneracy decisions share one
// loosened tolerance (degenTol, the square root of the pricing
// tolerance).
//
// # The sparse kernel
//
// The sparse kernel works in original coordinates on the equality form
// A·x + s = b, one slack column per row with bounds encoding the row
// sense (LE: [0,inf), GE: (-inf,0], EQ: fixed 0). The basis is held as
// a product-form factorization (eta.go): Gauss–Jordan base etas with
// partial pivoting from the last refactorization plus one update eta
// per basis exchange, rebuilt every refactorEvery updates. Each
// iteration prices with one BTRAN, FTRANs the entering column, and runs
// the same two-sided bounded ratio test; duals fall out of BTRAN in
// original row space with no extra bookkeeping.
//
// Phase 1 needs no artificial columns: the all-slack basis is always a
// basis, and each basic variable that violates a bound has that bound
// temporarily relaxed toward the violated side (clamped at the violated
// bound) with a unit cost on the excursion. Minimizing drives the
// violations to zero exactly when the problem is feasible; a relaxed
// variable that lands on its clamp gets its true bounds re-armed on the
// spot, so later pivots can move it into the feasible interior.
//
// # Warm starts
//
// SolveFrom adds the dual-simplex re-optimization path that the
// branch-and-bound solver leans on. An optimal Solve records its basis
// as Solution.Basis — an opaque BasisSnapshot naming the basic column of
// each row (structural index, or "the slack/surplus of row i") plus the
// set of columns resting at their upper bound. The encoding is
// kernel-neutral and shape-stable: either kernel restores either
// kernel's snapshot, and appended rows (branch-and-bound bound rows)
// enter with their own slack basic. The dense kernel restores by
// Gaussian-elimination pivots into a fresh tableau; the sparse kernel
// restores by refactorizing the named columns, which is numerically
// fresh by construction.
//
// The restored basis stays dual feasible across bound changes because
// reduced costs depend on the basis and the cost vector, never on b, lo
// or hi. Dual-simplex pivots repair primal feasibility, a short primal
// polish cleans roundoff, and the result is verified (bounds and dual
// feasibility) before being reported. Any rejection along the way —
// nil, mismatched or singular basis, lost dual feasibility, an
// iteration cap, a failed final verification — falls back transparently
// to the cold two-phase Solve, with the rejected attempt's pivots still
// counted in Solution.Iterations so warm-vs-cold comparisons stay
// honest.
package lp
