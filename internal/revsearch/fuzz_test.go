package revsearch

import (
	"bytes"
	"math/big"
	"testing"

	"elmocomp/internal/lp"
	"elmocomp/internal/ratmat"
)

// FuzzRevsearchPivot pins the two exactness properties the traversal
// stands on, against the one lp.Dict. First, dictionaries are uniquely
// determined by their basis: Pivot(r, s) followed by Pivot(r, w) — with
// w the variable displaced by the first call — must restore every entry
// of the dictionary EXACTLY (numerator, denominator and row
// association), because walk() descends and unpivots along the same
// (row, column) pair and any drift would corrupt every sibling subtree
// explored afterwards. Unlike FuzzSimplexPivot, which only takes the
// lex-min-ratio pivots of a feasible walk, this holds the restore on ANY
// nonzero pivot element — negative ones and dictionaries that are not
// primal feasible included. Second, the lazy child test must agree with
// reality: for a positive pivot element, the sign lp.Dict.SignAfterPivot
// predicts from the parent must equal the sign the entry actually has
// after pivoting. A first byte of 128 or more scales every numerator by
// a drawn power of two up to 2^40, so that both properties are also
// held on wide dictionaries and across the pivot that widens one.
func FuzzRevsearchPivot(f *testing.F) {
	f.Add([]byte{2, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 255, 254, 253, 1, 2, 3})
	f.Add([]byte{3, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 3, 4})
	// A narrow 3-row dictionary that crosses 2^31 at its pivot (checked
	// below).
	widening := []byte("\xa40B0B0002B010")
	f.Add(widening)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 1
			}
			b := data[pos]
			pos++
			return b
		}
		mustCross, scaled := bytes.Equal(data, widening), data[0] >= 128
		m := int(next()%3) + 1
		n := m + int(next()%4) + 1
		coef := func() *big.Rat {
			v := next()
			num := int64(v%7) - 3
			if scaled {
				num <<= uint(next()) % 41
			}
			return big.NewRat(num, int64(v%3)+1)
		}
		A := ratmat.New(m, n)
		b := make([]*big.Rat, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				A.Set(i, j, coef())
			}
			b[i] = coef()
		}
		// A Dict comes out of lp.Solve only, which wants a feasible
		// program; neither property depends on the right-hand side, so
		// an infeasible draw trades it for the row sums (x = 1 is then
		// feasible). Solve drops dependent rows, hence m is re-read.
		prob := &lp.Problem{A: A, B: b}
		sol, err := lp.Solve(prob, lp.Options{})
		if err == nil && sol.Status == lp.Infeasible {
			ones := make([]*big.Rat, n)
			for j := range ones {
				ones[j] = big.NewRat(1, 1)
			}
			prob.B = A.MulVec(ones)
			sol, err = lp.Solve(prob, lp.Options{})
		}
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		if sol.Status != lp.Optimal {
			t.Fatalf("feasibility program is %v", sol.Status)
		}
		m = sol.Dict.NumRows()
		if m == 0 {
			t.Skip() // A is zero: nothing to pivot on
		}
		// The dictionary under test is the one of the first m columns,
		// feasible or not.
		basis := make([]int, m)
		for i := range basis {
			basis[i] = i
		}
		tab, err := sol.Dict.Rebuild(basis)
		if err != nil {
			t.Skip() // dependent basis columns; not a dictionary
		}
		// Pick a pivot: any row, any cobasic column with a nonzero entry.
		r := int(next()) % m
		s := -1
		off := int(next())
		for k := 0; k < n; k++ {
			c := (off + k) % n
			if tab.RowOf(c) < 0 && tab.Entry(r, c).Sign() != 0 {
				s = c
				break
			}
		}
		if s < 0 {
			t.Skip() // row is zero on every cobasic column
		}
		orig := tab.Clone()
		w := tab.BasicVar(r)
		positivePivot := tab.Entry(r, s).Sign() > 0
		tab.Pivot(r, s)
		if mustCross && (orig.Wide() || !tab.Wide() || !positivePivot) {
			t.Fatal("the widening seed no longer widens a dictionary at a positive pivot")
		}
		if positivePivot {
			for i := 0; i < m; i++ {
				if i == r {
					continue
				}
				for j := 0; j < n; j++ {
					if got, want := orig.SignAfterPivot(i, j, r, s), tab.Entry(i, j).Sign(); got != want {
						t.Fatalf("childEntrySign(%d,%d) predicted %d from the parent, pivoted entry has sign %d", i, j, got, want)
					}
				}
			}
		}
		tab.Pivot(r, w)
		if !tab.Equal(orig) {
			t.Fatal("pivot/unpivot did not restore the dictionary exactly")
		}
		if tab.BasicVar(r) != w || tab.RowOf(s) >= 0 {
			t.Fatalf("basis association corrupted: row %d holds %d, RowOf(%d)=%d", r, tab.BasicVar(r), s, tab.RowOf(s))
		}
	})
}
