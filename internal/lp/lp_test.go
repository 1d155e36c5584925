package lp

import (
	"math/big"
	"reflect"
	"testing"

	"elmocomp/internal/ratmat"
)

// prob builds a Problem from string-rational rows, rhs and objective.
func prob(t *testing.T, rows [][]string, b, c []string) *Problem {
	t.Helper()
	m := len(rows)
	n := 0
	if m > 0 {
		n = len(rows[0])
	}
	A := ratmat.New(m, n)
	for i, row := range rows {
		if len(row) != n {
			t.Fatalf("ragged row %d", i)
		}
		for j, s := range row {
			A.Set(i, j, rat(t, s))
		}
	}
	p := &Problem{A: A, B: rats(t, b)}
	if c != nil {
		p.C = rats(t, c)
	}
	return p
}

func rat(t *testing.T, s string) *big.Rat {
	t.Helper()
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		t.Fatalf("bad rational %q", s)
	}
	return r
}

func rats(t *testing.T, ss []string) []*big.Rat {
	t.Helper()
	out := make([]*big.Rat, len(ss))
	for i, s := range ss {
		out[i] = rat(t, s)
	}
	return out
}

func solveOptimal(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	return sol
}

// TestSolveSimplex pins the optimum of a 1-row LP: minimize -x1 - x2 on
// the standard simplex slice x1 + x2 + x3 = 1.
func TestSolveSimplex(t *testing.T) {
	p := prob(t, [][]string{{"1", "1", "1"}}, []string{"1"}, []string{"-1", "-1", "0"})
	sol := solveOptimal(t, p)
	if sol.Value.Cmp(rat(t, "-1")) != 0 {
		t.Fatalf("value %v, want -1", sol.Value)
	}
	sum := new(big.Rat).Add(sol.X[0], sol.X[1])
	sum.Add(sum, sol.X[2])
	if sum.Cmp(rat(t, "1")) != 0 {
		t.Fatalf("vertex %v not on the slice", sol.X)
	}
	if sol.Pivots <= 0 || sol.Dict == nil || len(sol.Basis) != 1 {
		t.Fatalf("missing solve artifacts: %+v", sol)
	}
	if !sol.Dict.LexFeasible() {
		t.Fatal("optimal dictionary is not lex-feasible")
	}
}

// TestSolveWeighted checks a non-trivial exact optimum with fractional
// data: minimize x1/3 + 2x2 with x1 + x2 = 1, x1,x2 >= 0 → x1 = 1.
func TestSolveWeighted(t *testing.T) {
	p := prob(t, [][]string{{"1", "1"}}, []string{"1"}, []string{"1/3", "2"})
	sol := solveOptimal(t, p)
	if sol.Value.Cmp(rat(t, "1/3")) != 0 {
		t.Fatalf("value %v, want 1/3", sol.Value)
	}
	if sol.X[0].Cmp(rat(t, "1")) != 0 || sol.X[1].Sign() != 0 {
		t.Fatalf("vertex %v, want (1, 0)", sol.X)
	}
}

// TestSolveBeale runs Beale's classic cycling example — the instance
// that loops forever under the naive most-negative rule — and demands
// termination at its known optimum -1/20 (exactness + anti-cycling in
// one assertion).
func TestSolveBeale(t *testing.T) {
	p := prob(t, [][]string{
		{"1", "0", "0", "1/4", "-60", "-1/25", "9"},
		{"0", "1", "0", "1/2", "-90", "-1/50", "3"},
		{"0", "0", "1", "0", "0", "1", "0"},
	}, []string{"0", "0", "1"},
		[]string{"0", "0", "0", "-3/4", "150", "-1/50", "6"})
	sol := solveOptimal(t, p)
	if sol.Value.Cmp(rat(t, "-1/20")) != 0 {
		t.Fatalf("value %v, want -1/20", sol.Value)
	}
}

// TestSolveInfeasibleSign: x1 + x2 = -1 has no non-negative solution.
func TestSolveInfeasibleSign(t *testing.T) {
	p := prob(t, [][]string{{"1", "1"}}, []string{"-1"}, nil)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

// TestSolveInconsistentRows: x1 = 1 and x1 = 2 cannot hold together;
// the augmented-rank pre-pass must catch it before phase 1.
func TestSolveInconsistentRows(t *testing.T) {
	p := prob(t, [][]string{{"1"}, {"1"}}, []string{"1", "2"}, nil)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

// TestSolveRedundantRows: a duplicated consistent row must be dropped,
// not break phase 1's artificial drive-out.
func TestSolveRedundantRows(t *testing.T) {
	p := prob(t, [][]string{{"1", "1"}, {"1", "1"}, {"1", "-1"}},
		[]string{"1", "1", "0"}, []string{"1", "1"})
	sol := solveOptimal(t, p)
	if sol.Value.Cmp(rat(t, "1")) != 0 {
		t.Fatalf("value %v, want 1", sol.Value)
	}
	if sol.X[0].Cmp(rat(t, "1/2")) != 0 || sol.X[1].Cmp(rat(t, "1/2")) != 0 {
		t.Fatalf("vertex %v, want (1/2, 1/2)", sol.X)
	}
}

// TestSolveUnbounded: minimize -x1 with x1 - x2 = 0 recedes along
// (1, 1).
func TestSolveUnbounded(t *testing.T) {
	p := prob(t, [][]string{{"1", "-1"}}, []string{"0"}, []string{"-1", "0"})
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", sol.Status)
	}
}

// TestSolveZeroObjective: nil C is pure feasibility; the phase-1 vertex
// comes back with value 0.
func TestSolveZeroObjective(t *testing.T) {
	p := prob(t, [][]string{{"1", "1", "1"}}, []string{"1"}, nil)
	sol := solveOptimal(t, p)
	if sol.Value.Sign() != 0 {
		t.Fatalf("value %v, want 0", sol.Value)
	}
}

// TestSolveCanceled: a pre-tripped cancel channel aborts the solve with
// ErrCanceled.
func TestSolveCanceled(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	p := prob(t, [][]string{{"1", "1"}}, []string{"1"}, []string{"-1", "0"})
	if _, err := Solve(p, Options{Cancel: cancel}); err != ErrCanceled {
		t.Fatalf("err %v, want ErrCanceled", err)
	}
}

// TestRebuildRoundTrip: rebuilding the optimal basis from scratch must
// reproduce the identical vertex, value and basis — the property the
// on-demand generator's pop path relies on.
func TestRebuildRoundTrip(t *testing.T) {
	p := prob(t, [][]string{
		{"1", "0", "0", "1/4", "-60", "-1/25", "9"},
		{"0", "1", "0", "1/2", "-90", "-1/50", "3"},
		{"0", "0", "1", "0", "0", "1", "0"},
	}, []string{"0", "0", "1"},
		[]string{"0", "0", "0", "-3/4", "150", "-1/50", "6"})
	sol := solveOptimal(t, p)
	d2, err := sol.Dict.Rebuild(sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Value().Cmp(sol.Value) != 0 {
		t.Fatalf("rebuilt value %v, want %v", d2.Value(), sol.Value)
	}
	x2 := d2.X()
	for j, v := range sol.X {
		if x2[j].Cmp(v) != 0 {
			t.Fatalf("rebuilt x[%d] = %v, want %v", j, x2[j], v)
		}
	}
	b2 := d2.Basis()
	for i, v := range sol.Basis {
		if b2[i] != v {
			t.Fatalf("rebuilt basis %v, want %v", b2, sol.Basis)
		}
	}
	if !d2.LexFeasible() {
		t.Fatal("rebuilt dictionary is not lex-feasible")
	}
}

// TestPricingIdentity checks the two pivot-free neighbor identities the
// traversals use: after Pivot(r, s), the new objective value equals
// value + ReducedCost(s) * (bbar_r / T[r][s]) computed in the parent,
// and the new basis equals BasisAfter(r, s) read off the parent.
func TestPricingIdentity(t *testing.T) {
	p := prob(t, [][]string{{"1", "1", "1", "0"}, {"1", "-1", "0", "1"}},
		[]string{"1", "0"}, []string{"-2", "1", "0", "3"})
	sol := solveOptimal(t, p)
	d := sol.Dict
	for s := 0; s < d.NumVars(); s++ {
		if d.RowOf(s) >= 0 {
			continue
		}
		r := d.LexMinRatioRow(s)
		if r < 0 {
			continue
		}
		var ratio big.Rat
		d.RatioInto(&ratio, r, s)
		pred := new(big.Rat).Mul(d.ReducedCost(s), &ratio)
		pred.Add(pred, d.Value())
		after := d.BasisAfter(r, s)
		child := d.Clone()
		child.Pivot(r, s)
		if got := child.Basis(); !reflect.DeepEqual(got, after) {
			t.Fatalf("enter %d: pivoted basis %v, BasisAfter %v", s, got, after)
		}
		if child.Value().Cmp(pred) != 0 {
			t.Fatalf("enter %d: pivoted value %v, priced %v", s, child.Value(), pred)
		}
		if !child.LexFeasible() {
			t.Fatalf("enter %d: lex-min-ratio pivot lost lex-feasibility", s)
		}
	}
}

// TestNormalizedCone pins the constructor's layout: N on top, the
// normalization row 1ᵀ below it, right-hand side e_last, no objective.
func TestNormalizedCone(t *testing.T) {
	N := ratmat.FromInts([][]int64{{1, -1, 0}, {0, 2, -3}})
	p := NormalizedCone(N)
	want := ratmat.FromInts([][]int64{{1, -1, 0}, {0, 2, -3}, {1, 1, 1}})
	if !p.A.Equal(want) {
		t.Fatalf("A =\n%v\nwant\n%v", p.A, want)
	}
	if len(p.B) != 3 || p.B[0].Sign() != 0 || p.B[1].Sign() != 0 || p.B[2].Cmp(rat(t, "1")) != 0 {
		t.Fatalf("b = %v, want (0, 0, 1)", p.B)
	}
	if p.C != nil {
		t.Fatalf("c = %v, want nil", p.C)
	}
}

// TestSolveFractionalRowsPinned pins both phases on rows with different
// denominator lcms (5, 70, 15). The phase-1 objective is the sum of the
// artificials, so it depends on row scale: an integer dictionary that
// scales row i by Lᵢ must seed its artificial at Lᵢ too, or it solves a
// different phase 1 — on this program 3 phase-1 pivots and 8 in all
// instead of the 4 and 9 recorded from the big.Rat dictionary.
func TestSolveFractionalRowsPinned(t *testing.T) {
	p := prob(t, [][]string{
		{"0", "1", "-3", "3", "-1", "-2/5"},
		{"-1/7", "0", "2", "-1/2", "3/5", "1/2"},
		{"-2/3", "-3/5", "-1", "1/3", "-1", "0"},
	}, []string{"-2", "41/10", "-58/15"},
		[]string{"-3", "-1/3", "-1/3", "1", "-2", "-4/3"})
	sol := solveOptimal(t, p)
	if sol.Phase1Pivots != 4 || sol.Pivots != 9 {
		t.Fatalf("pivots %d (phase 1: %d), want 9 (4)", sol.Pivots, sol.Phase1Pivots)
	}
	if !reflect.DeepEqual(sol.Basis, []int{0, 3, 5}) || sol.Value.Cmp(rat(t, "-42839/1335")) != 0 {
		t.Fatalf("basis %v value %v, want [0 3 5] -42839/1335", sol.Basis, sol.Value)
	}
}
