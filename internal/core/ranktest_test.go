package core

import (
	"fmt"
	"math/rand"
	"testing"

	"elmocomp/internal/linalg"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/ratmat"
	"elmocomp/internal/synth"
)

// exactNullityIsOne is the definition the float test stands in for:
// |S| − rank(NExact[:,S]) == 1, in rational arithmetic.
func exactNullityIsOne(p *nullspace.Problem, support []uint64) bool {
	var cols []int
	for r := 0; r < p.Q(); r++ {
		if support[r/64]>>uint(r%64)&1 != 0 {
			cols = append(cols, r)
		}
	}
	return len(cols)-p.NExact.SelectColumns(cols).Rank() == 1
}

// rankTestChecker compares IsElementaryWS with the exact verdict, one
// support at a time, through every scratch a caller may hand it: none,
// one too short for the columns, one too short for the live rows, and
// the q-capacity one the engine and the benchmark pass.
type rankTestChecker struct {
	t         *testing.T
	p         *nullspace.Problem
	ws        *linalg.Workspace
	set       *ModeSet
	scratches [][]int
	accepted  int
	checked   int
}

func newRankTestChecker(t *testing.T, p *nullspace.Problem) *rankTestChecker {
	return &rankTestChecker{
		t: t, p: p,
		ws:        linalg.NewWorkspace(p.M()+2, p.M()+2),
		set:       NewModeSet(p.Q(), p.Q(), nil),
		scratches: [][]int{nil, make([]int, 0, 1), make([]int, 3, 3), make([]int, 0, p.Q())},
	}
}

func (c *rankTestChecker) check(label string, support []uint64) {
	c.t.Helper()
	want := exactNullityIsOne(c.p, support)
	c.set.Reset(c.p.Q(), c.p.Q(), nil)
	i := c.set.AppendMode(support, nil, nil, 0)
	for _, sc := range c.scratches {
		if got := IsElementaryWS(c.p, c.set, i, 0, c.ws, sc); got != want {
			c.t.Fatalf("%s: support %x with a scratch of capacity %d: IsElementaryWS = %v, exact nullity-one = %v", label, support, cap(sc), got, want)
		}
	}
	c.checked++
	if want {
		c.accepted++
	}
}

// checkMutations checks the support as it is and with each of the given
// rows flipped — added when absent, removed when present.
func (c *rankTestChecker) checkMutations(label string, support []uint64, rows []int) {
	c.t.Helper()
	c.check(label, support)
	mut := make([]uint64, len(support))
	for _, r := range rows {
		copy(mut, support)
		mut[r/64] ^= 1 << uint(r%64)
		c.check(fmt.Sprintf("%s, row %d flipped", label, r), mut)
	}
}

// TestRankTestMatchesExact: on real mode sets — toy and an efmgen network
// run to the end and stopped mid-run, and a mid-run Network I set — and on
// every support one bit away from them, the reduced float test reaches the
// verdict of the exact definition.
func TestRankTestMatchesExact(t *testing.T) {
	gen, err := synth.Network(synth.Params{Layers: 3, Width: 4, CrossLinks: 6, ReversibleFraction: 0.4, MaxCoef: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	toyP, _ := problemFor(t, model.Toy())
	genP, _ := problemFor(t, gen)
	yeastP := yeastProblem(t)
	rng := rand.New(rand.NewSource(28))
	for _, fx := range []struct {
		name     string
		p        *nullspace.Problem
		lastRows []int // Options.LastRow of each set; 0 is the complete run
		columns  int   // upper bound on the columns checked per set
		flips    int   // rows flipped per column; 0: every row
	}{
		{"toy", toyP, []int{0, 5, 6}, toyP.Q() * toyP.Q(), 0},
		{gen.Name, genP, []int{0, genP.Q() - 3}, 60, 0},
		{"yeast1", yeastP, []int{yeastP.D + 20}, 150, 6},
	} {
		c := newRankTestChecker(t, fx.p)
		q := fx.p.Q()
		for _, last := range fx.lastRows {
			res, err := Run(fx.p, Options{LastRow: last})
			if err != nil {
				t.Fatal(err)
			}
			set := res.Modes
			stride := max(1, set.Len()/fx.columns)
			for i := 0; i < set.Len(); i += stride {
				rows := rng.Perm(q)
				if fx.flips > 0 {
					rows = rows[:fx.flips]
				}
				c.checkMutations(fmt.Sprintf("%s stopped at row %d, column %d", fx.name, last, i), set.BitsWords(i), rows)
			}
		}
		if c.accepted == 0 || c.accepted == c.checked {
			t.Fatalf("%s: %d of %d supports are nullity one — the fixture exercises one verdict only", fx.name, c.accepted, c.checked)
		}
		t.Logf("%s: %d supports, %d of nullity one", fx.name, c.checked, c.accepted)
	}
}

// wideProblem is a hand-built problem of kernel dimension d over m
// constraints: few rows, many columns, nothing to enumerate. Every entry
// is a small integer and every column irreversible.
func wideProblem(t *testing.T, rng *rand.Rand, d, m int) *nullspace.Problem {
	t.Helper()
	q := d + m
	for {
		rows := make([][]int64, m)
		for i := range rows {
			rows[i] = make([]int64, q)
			for j := range rows[i] {
				if rng.Intn(3) == 0 {
					rows[i][j] = int64(rng.Intn(5) - 2)
				}
			}
		}
		N := ratmat.FromInts(rows)
		if N.Rank() != m {
			continue
		}
		p, err := nullspace.New(N, make([]bool, q), nullspace.Heuristics{})
		if err != nil {
			t.Fatal(err)
		}
		if p.D != d {
			t.Fatalf("wide problem: D = %d, want %d", p.D, d)
		}
		return p
	}
}

// TestRankTestWideKernels drives the multi-word identity block: D below,
// at and above one word and above two, where J and the row masks span
// words and the last word's unused bits must be masked off. Supports are
// random and small (nullity one needs |S| ≤ m+1) or near-complements, so
// T̄ is sometimes empty.
func TestRankTestWideKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, d := range []int{63, 64, 65, 130} {
		const m = 4
		p := wideProblem(t, rng, d, m)
		q := p.Q()
		c := newRankTestChecker(t, p)
		support := make([]uint64, (q+63)/64)
		for trial := 0; trial < 400; trial++ {
			clear(support)
			size := 1 + rng.Intn(m+2)
			for _, r := range rng.Perm(q)[:size] {
				support[r/64] |= 1 << uint(r%64)
			}
			if trial%4 == 0 { // the whole pivot block joins the support: T̄ is empty
				for r := d; r < q; r++ {
					support[r/64] |= 1 << uint(r%64)
				}
			}
			c.check(fmt.Sprintf("D=%d trial %d", d, trial), support)
		}
		if c.accepted < 20 || c.checked-c.accepted < 20 {
			t.Fatalf("D=%d: %d of %d supports are nullity one — too one-sided to mean anything", d, c.accepted, c.checked)
		}
	}
}

// TestRankTestEdgeCases: the verdicts the reduced test reaches with and
// without an elimination, on the toy problem (D = 4 over q = 8), whose
// block below the identity rows is
//
//	row 4: [ 1    0   1   0]
//	row 5: [ 0   .5   0  -1]
//	row 6: [-.5  .5   0  -1]
//	row 7: [ 1   -1   1   1]
func TestRankTestEdgeCases(t *testing.T) {
	p, _ := problemFor(t, model.Toy())
	if p.D != 4 || p.Q() != 8 || p.RowMask[4] != 0b0101 || p.RowMask[5] != 0b1010 || p.RowMask[6] != 0b1011 || p.RowMask[7] != 0b1111 {
		t.Fatalf("toy kernel changed shape: D=%d q=%d masks %b", p.D, p.Q(), p.RowMask)
	}
	ws := linalg.NewWorkspace(1, 1) // grows on demand
	for _, tc := range []struct {
		name           string
		support        uint64
		ok, eliminated bool
	}{
		{"empty support", 0, false, false},
		{"|J| = 0: pivot rows only", 0xF0, false, false},
		{"|J| = 1, no live row: column 2 vanishes on T̄ = {5,6}", 0b1001_0100, true, false},
		{"|J| = 1, T̄ empty", 0b1111_0100, true, false},
		{"|J| = 2, T̄ empty: nothing constrains two free columns", 0b1111_0011, false, false},
		{"|J| = 4 over two live rows: the count rejects", 0b1001_1111, false, false},
		{"|J| = 1 pinned to zero by its live rows", 0b0000_0100, false, true},
		{"|J| = 2 tied by row 4", 0b1110_0101, true, true},
	} {
		words := []uint64{tc.support}
		ok, eliminated := nullityIsOne(p, ws, words, linalg.DefaultTol, nil)
		if want := exactNullityIsOne(p, words); ok != want || ok != tc.ok || eliminated != tc.eliminated {
			t.Errorf("%s (support %#b): (ok, eliminated) = (%v, %v), want (%v, %v); exact verdict %v", tc.name, tc.support, ok, eliminated, tc.ok, tc.eliminated, want)
		}
	}
}
