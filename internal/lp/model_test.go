package lp

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// freshSnapshot returns a copy of b's encoding with an empty restore
// memo, so a restore from it factors the basis from scratch.
func freshSnapshot(b BasisSnapshot) BasisSnapshot {
	fb, ok := b.(*FactorizedBasis)
	if !ok {
		return b
	}
	return &FactorizedBasis{rows: fb.rows, flips: fb.flips, n: fb.n}
}

// requireIdentical fails unless two solutions agree bit for bit: status,
// X, Objective, Duals, Iterations, Warm, Kernel and basis encoding.
func requireIdentical(t *testing.T, label string, a, b Solution) {
	t.Helper()
	if a.Status != b.Status || a.Iterations != b.Iterations || a.Warm != b.Warm || a.Kernel != b.Kernel {
		t.Fatalf("%s: status/iterations/warm/kernel %v/%d/%v/%v vs %v/%d/%v/%v", label,
			a.Status, a.Iterations, a.Warm, a.Kernel, b.Status, b.Iterations, b.Warm, b.Kernel)
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		t.Fatalf("%s: objective %v vs %v", label, a.Objective, b.Objective)
	}
	sameBits := func(what string, x, y []float64) {
		if len(x) != len(y) {
			t.Fatalf("%s: %s length %d vs %d", label, what, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s: %s[%d] = %v vs %v", label, what, i, x[i], y[i])
			}
		}
	}
	sameBits("X", a.X, b.X)
	sameBits("Duals", a.Duals, b.Duals)
	if (a.Basis == nil) != (b.Basis == nil) {
		t.Fatalf("%s: basis %v vs %v", label, a.Basis, b.Basis)
	}
	if a.Basis == nil {
		return
	}
	ar, af, an := a.Basis.data()
	br, bf, bn := b.Basis.data()
	if an != bn || !equalInt32(ar, br) || !equalInt32(af, bf) || a.Basis.Kernel() != b.Basis.Kernel() {
		t.Fatalf("%s: basis encodings differ: %v %v %d vs %v %v %d", label, ar, af, an, br, bf, bn)
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// restoreTwice restores basis onto md under bounds (lo, hi) twice — a
// memo miss, then a memo hit when basis is a *FactorizedBasis restored
// onto a sparse model for the first time — and requires both to match a
// restore from a fresh copy of the snapshot bit for bit. It returns the
// first result.
func restoreTwice(t *testing.T, md *Model, lo, hi []float64, basis BasisSnapshot) Solution {
	t.Helper()
	ref, err := md.SolveFrom(lo, hi, freshSnapshot(basis), nil)
	if err != nil {
		t.Fatalf("fresh restore: %v", err)
	}
	miss, err := md.SolveFrom(lo, hi, basis, nil)
	if err != nil {
		t.Fatalf("first restore: %v", err)
	}
	hit, err := md.SolveFrom(lo, hi, basis, nil)
	if err != nil {
		t.Fatalf("second restore: %v", err)
	}
	requireIdentical(t, "first restore vs fresh snapshot", ref, miss)
	requireIdentical(t, "second restore vs first", miss, hit)
	return miss
}

// sparseFamily is a random covering LP large enough to exercise the
// sparse kernel's factorization, its optimum, and a branch-and-bound
// child bound patch for each of several fractional variables (down and
// up).
type sparseFamily struct {
	p      *Problem
	md     *Model
	parent Solution
	kids   []*Problem
}

func newSparseFamily(t *testing.T, seed int64) sparseFamily {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := randomCoverLP(r, 30, 20)
	md, err := newModel(p, KernelSparse)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := md.SolveFrom(nil, nil, nil, nil)
	if err != nil || parent.Status != Optimal || parent.Basis == nil {
		t.Fatalf("parent solve: %v %+v", err, parent)
	}
	fam := sparseFamily{p: p, md: md, parent: parent}
	for j, v := range parent.X {
		if v <= 1e-9 {
			continue
		}
		down := p.Clone()
		down.SetBounds(j, 0, math.Ceil(v)-1)
		up := p.Clone()
		up.SetBounds(j, math.Ceil(v), math.Inf(1))
		fam.kids = append(fam.kids, down, up)
	}
	if len(fam.kids) < 4 {
		t.Fatalf("only %d children", len(fam.kids))
	}
	return fam
}

// TestRestoreMemoSiblings restores one parent snapshot onto every child of
// a sparse family through the parent's model: the first restore fills the
// memo, every later one shares it, and each result matches a restore from
// a fresh copy of the snapshot bit for bit.
func TestRestoreMemoSiblings(t *testing.T) {
	fam := newSparseFamily(t, 11)
	snap := fam.parent.Basis.(*FactorizedBasis)
	warm := 0
	for _, q := range fam.kids {
		if sol := restoreTwice(t, fam.md, q.Lo, q.Hi, snap); sol.Warm {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("no child took the warm path")
	}
	if snap.memo.md != fam.md || !snap.memo.ok || len(snap.memo.base) != fam.md.m {
		t.Fatalf("memo not keyed on the model after restores: %+v", &snap.memo)
	}
}

// TestRestoreMemoConcurrentSiblings restores one snapshot onto many
// children concurrently (run it under -race). One sibling is forced to
// refactorize right after its restore, which must replace the borrowed
// factor rather than write into it: every result still matches its
// fresh-snapshot reference bit for bit, and the memo's etas are unchanged.
func TestRestoreMemoConcurrentSiblings(t *testing.T) {
	fam := newSparseFamily(t, 23)
	refs := make([]Solution, len(fam.kids))
	for i, q := range fam.kids {
		sol, err := fam.md.SolveFrom(q.Lo, q.Hi, freshSnapshot(fam.parent.Basis), nil)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = sol
	}
	snap := fam.parent.Basis.(*FactorizedBasis)
	rows, flips, _ := snap.data()
	const rounds = 4
	got := make([]Solution, rounds*len(fam.kids))
	forced := make([]Solution, rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, q := range fam.kids {
			wg.Add(1)
			go func(slot int, q *Problem) {
				defer wg.Done()
				sol, err := fam.md.SolveFrom(q.Lo, q.Hi, snap, nil)
				if err != nil {
					t.Error(err)
				}
				got[slot] = sol
			}(r*len(fam.kids)+i, q)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q := fam.kids[0]
			sp := fam.md.newSparse(q.Lo, q.Hi, nil)
			if !sp.restore(snap, rows, flips) {
				t.Error("restore rejected")
				return
			}
			if !sp.f.borrowed {
				t.Error("restored factor does not share the memo")
			}
			if !sp.refactorize(sp.tol) {
				t.Error("forced refactorization failed")
				return
			}
			sol, ok := sp.reoptimize()
			if !ok {
				t.Error("warm path rejected after forced refactorization")
			}
			sol.Kernel = KernelSparse // Model.SolveFrom's stamp
			forced[r] = sol
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for slot, sol := range got {
		requireIdentical(t, "concurrent sibling", refs[slot%len(fam.kids)], sol)
	}
	for _, sol := range forced {
		requireIdentical(t, "forced refactorization", refs[0], sol)
	}
	// The memo still holds a fresh factorization of the snapshot's basis.
	sp := fam.md.newSparse(nil, nil, nil)
	if !sp.restore(freshSnapshot(snap), rows, flips) {
		t.Fatal("fresh restore rejected")
	}
	if !equalInt32(sp.f.rowOfPos, snap.memo.rowOfPos) || len(sp.f.base) != len(snap.memo.base) {
		t.Fatal("memo row order or eta count changed")
	}
	for e := range sp.f.base {
		a, b := sp.f.base[e], snap.memo.base[e]
		if a.row != b.row || math.Float64bits(a.piv) != math.Float64bits(b.piv) || !equalInt32(a.ind, b.ind) || len(a.val) != len(b.val) {
			t.Fatalf("memo eta %d changed", e)
		}
		for k := range a.val {
			if math.Float64bits(a.val[k]) != math.Float64bits(b.val[k]) {
				t.Fatalf("memo eta %d value %d changed", e, k)
			}
		}
	}
}

// TestRestoreMemoMissesOtherModels restores a snapshot whose memo belongs
// to one model onto other models — a mutated problem, as a session's root
// basis is, and the same rows with one appended — and requires each to
// miss the memo and match a restore from a fresh copy of the snapshot.
// Keying the memo on the snapshot alone fails this test.
func TestRestoreMemoMissesOtherModels(t *testing.T) {
	fam := newSparseFamily(t, 37)
	snap := fam.parent.Basis.(*FactorizedBasis)
	restoreTwice(t, fam.md, fam.kids[0].Lo, fam.kids[0].Hi, snap) // memo now keyed on fam.md

	// Scale every coefficient of each basic structural column (the basis
	// matrix changes, so a borrowed factor would be wrong) and move a
	// right-hand side.
	mutated := fam.p.Clone()
	for _, enc := range snap.rows {
		if enc >= 0 {
			for i := range mutated.Constraints {
				mutated.Constraints[i].Coeffs[enc] *= 1.5
			}
		}
	}
	mutated.Constraints[0].RHS += 3
	appended := fam.p.Clone()
	row := make([]float64, appended.NumVars())
	row[0] = 1
	appended.Constraints = append(appended.Constraints, Constraint{Coeffs: row, Rel: LE, RHS: 50})

	for _, q := range []*Problem{mutated, appended} {
		md, err := newModel(q, KernelSparse)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := md.SolveFrom(nil, nil, freshSnapshot(snap), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := md.SolveFrom(nil, nil, snap, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "restore onto another model", ref, got)
		cold, err := md.SolveFrom(nil, nil, nil, nil)
		if err != nil || cold.Status != got.Status || math.Abs(cold.Objective-got.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("warm %v %g vs cold %v %g (%v)", got.Status, got.Objective, cold.Status, cold.Objective, err)
		}
	}
	if snap.memo.md != fam.md {
		t.Fatal("a restore onto another model replaced the memo")
	}
}

// TestResidualCheckRejectsDrift certifies the sparse warm exit's
// from-scratch residual check: it accepts the optimum the warm path
// reaches and rejects the same point once a basic value or the
// objective's basic reduced cost is knocked off by more than the slack.
func TestResidualCheckRejectsDrift(t *testing.T) {
	fam := newSparseFamily(t, 41)
	q := fam.kids[0]
	rows, flips, _ := fam.parent.Basis.data()
	sp := fam.md.newSparse(q.Lo, q.Hi, nil)
	if !sp.restore(fam.parent.Basis, rows, flips) {
		t.Fatal("restore rejected")
	}
	if _, ok := sp.reoptimize(); !ok {
		t.Fatal("warm path rejected")
	}
	sp.cost = sp.obj
	if !sp.dualFeasible(sp.dtol) || !sp.residualsWithin(sp.dtol) {
		t.Fatal("residual check rejects the warm optimum")
	}
	c := sp.basis[0]
	saved := sp.x[c]
	sp.x[c] += 1e-3 * (1 + math.Abs(saved))
	if sp.residualsWithin(sp.dtol) {
		t.Error("residual check accepts a point off A·x + s = b")
	}
	sp.x[c] = saved
	sp.yrow[0] += 1
	if sp.residualsWithin(sp.dtol) {
		t.Error("residual check accepts duals that miss a basic reduced cost")
	}
}

// TestModelValidation pins what NewModel and a model solve each check:
// the model validates the objective and rows once, a solve only its
// bounds.
func TestModelValidation(t *testing.T) {
	bad := coveringBase()
	bad.Constraints[1].Coeffs[0] = math.NaN()
	if _, err := NewModel(bad); err == nil || !strings.Contains(err.Error(), "non-finite coefficient") {
		t.Errorf("NewModel accepted a NaN coefficient: %v", err)
	}
	if _, err := NewModel(&Problem{}); err == nil {
		t.Error("NewModel accepted an empty objective")
	}
	md, err := NewModel(coveringBase())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lo, hi []float64
		want   string
	}{
		{[]float64{0, 0}, nil, "2 lower bounds for 3 variables"},
		{nil, []float64{1, 1}, "2 upper bounds for 3 variables"},
		{[]float64{0, 2, 0}, []float64{1, 1, 1}, "crossed bounds"},
		{[]float64{0, math.Inf(-1), 0}, nil, "non-finite lower bound"},
		{nil, []float64{1, math.NaN(), 1}, "invalid upper bound"},
	} {
		if _, err := md.SolveFrom(tc.lo, tc.hi, nil, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("SolveFrom(%v, %v) = %v, want %q", tc.lo, tc.hi, err, tc.want)
		}
	}
	sol, err := md.SolveFrom(nil, []float64{math.Inf(1), math.Inf(1), 3}, nil, nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("bounded solve: %v %v", err, sol.Status)
	}
	want, _ := Solve(&Problem{Objective: coveringBase().Objective, Constraints: coveringBase().Constraints, Hi: []float64{math.Inf(1), math.Inf(1), 3}}, nil)
	requireIdentical(t, "model solve vs Solve", want, sol)
}
