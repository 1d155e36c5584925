package lp

import (
	"bytes"
	"math/big"
	"testing"

	"elmocomp/internal/ratmat"
)

// FuzzSimplexPivot decodes a small random LP from the fuzz bytes,
// solves it, and then walks random lex-min-ratio pivots from the
// optimal dictionary, checking after every step that
//
//   - the pivot preserves primal and lexicographic feasibility (the
//     invariant that makes the basis graph of the perturbed polytope
//     well-defined),
//   - the pricing identity holds: the child's exact objective value
//     equals value + ReducedCost(s)·(bbar_r/T[r][s]) read off the
//     parent,
//   - pivot/unpivot round-trips to the identical dictionary (the
//     exactness property: entries are uniquely determined by the basis
//     and row order, so no drift can accumulate), and
//   - rebuilding the current basis from scratch reproduces the same
//     vertex and value.
//
// A first byte of 128 or more scales every constraint coefficient by a
// drawn power of two up to 2^40, so that dictionaries start wide, or
// start narrow and cross 2^31 mid-walk: the round trip then compares a
// narrow clone with its widened, unpivoted twin.
func FuzzSimplexPivot(f *testing.F) {
	f.Add([]byte{2, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{1, 3, 1, 1, 1, 1, 255, 255, 0, 9, 9})
	f.Add([]byte{3, 5, 0x10, 0x22, 0x31, 0x44, 0x50, 0x66, 0x71, 0x80, 0x9f, 1, 2, 3, 4, 5, 6, 7, 8})
	// Crosses 2^31 at a pivot after the first of its walk (checked below).
	widening := []byte("\xee200000c07000001000200111000010")
	f.Add(widening)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		mustCross, crossed := bytes.Equal(data, widening), false
		scaled := data[0] >= 128
		m := int(data[0])%3 + 1
		n := int(data[1])%4 + m + 1
		data = data[2:]
		next := func() int {
			if len(data) == 0 {
				return 1
			}
			v := int(int8(data[0]))
			data = data[1:]
			return v % 7
		}
		coef := func() int64 {
			v := int64(next())
			if scaled && len(data) > 0 {
				v <<= uint(data[0]) % 41
				data = data[1:]
			}
			return v
		}
		A := ratmat.New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				A.SetInt(i, j, coef())
			}
		}
		p := &Problem{A: A, B: make([]*big.Rat, m), C: make([]*big.Rat, n)}
		for i := 0; i < m; i++ {
			p.B[i] = big.NewRat(int64(next()), 1)
		}
		for j := 0; j < n; j++ {
			p.C[j] = big.NewRat(int64(next()), 1)
		}
		sol, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		if sol.Status != Optimal {
			t.Skip() // infeasible or unbounded instance: nothing to walk
		}
		d := sol.Dict
		var ratio big.Rat
		for step := 0; step < 12 && len(data) > 0; step++ {
			s := int(data[0]) % d.NumVars()
			data = data[1:]
			if d.RowOf(s) >= 0 {
				continue
			}
			r := d.LexMinRatioRow(s)
			if r < 0 {
				continue
			}
			w := d.BasicVar(r)
			before := d.Clone()
			d.RatioInto(&ratio, r, s)
			pred := new(big.Rat).Mul(d.ReducedCost(s), &ratio)
			pred.Add(pred, d.Value())

			d.Pivot(r, s)
			crossed = crossed || (step > 0 && !before.Wide() && d.Wide())
			if !d.Feasible() {
				t.Fatalf("step %d: pivot (%d, %d) lost primal feasibility", step, r, s)
			}
			if !d.LexFeasible() {
				t.Fatalf("step %d: pivot (%d, %d) lost lex-feasibility", step, r, s)
			}
			if d.Value().Cmp(pred) != 0 {
				t.Fatalf("step %d: value %v, priced %v", step, d.Value(), pred)
			}
			rb, err := d.Rebuild(d.Basis())
			if err != nil {
				t.Fatalf("step %d: rebuild: %v", step, err)
			}
			if rb.Value().Cmp(d.Value()) != 0 {
				t.Fatalf("step %d: rebuilt value %v, want %v", step, rb.Value(), d.Value())
			}
			x, rx := d.X(), rb.X()
			for j := range x {
				if x[j].Cmp(rx[j]) != 0 {
					t.Fatalf("step %d: rebuilt x[%d] = %v, want %v", step, j, rx[j], x[j])
				}
			}

			// Unpivot and demand the bit-identical dictionary back.
			undo := d.Clone()
			undo.Pivot(r, w)
			undo.pivots = before.pivots
			if !undo.Equal(before) {
				t.Fatalf("step %d: pivot (%d, %d) / unpivot did not restore the dictionary", step, r, s)
			}
		}
		if mustCross && !crossed {
			t.Fatal("the widening seed no longer widens a dictionary mid-walk")
		}
	})
}
