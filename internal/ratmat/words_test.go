package ratmat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// checkWidths eliminates m, or mᵀ when transpose is set, on machine
// words and in big.Rat. When the words stay narrow their reduced row
// echelon form must equal the big.Rat one pivot for pivot, numerator for
// numerator and denominator for denominator, so every word is in lowest
// terms. Whichever width runs, RREF, Rank, Kernel and IndependentRows
// must return the big.Rat results and leave m as it was (RREF on a
// copy). It reports whether the words stayed narrow.
func checkWidths(t *testing.T, name string, m *Matrix, transpose bool) bool {
	t.Helper()
	before := m.Clone()
	src := m
	if transpose {
		src = m.T()
	}
	ref := src.Clone()
	refPivots := ref.rrefRat()

	w, ok := m.narrow(transpose)
	var pivots []int
	if ok {
		pivots, ok = w.rref()
	}
	if ok {
		if !equalInts(pivots, refPivots) {
			t.Fatalf("%s: word pivots %v, big.Rat %v", name, pivots, refPivots)
		}
		for i, x := range w.a {
			want := &ref.a[i]
			if !want.Num().IsInt64() || x.n != want.Num().Int64() || !want.Denom().IsInt64() || x.d != want.Denom().Int64() {
				t.Fatalf("%s: word entry (%d,%d) = %d/%d, big.Rat %v", name, i/w.c, i%w.c, x.n, x.d, want.RatString())
			}
		}
	}
	if !m.Equal(before) {
		t.Fatalf("%s: the machine-word elimination changed its input", name)
	}

	if transpose {
		if got := m.IndependentRows(); !equalInts(got, refPivots) {
			t.Fatalf("%s: IndependentRows %v, big.Rat %v", name, got, refPivots)
		}
	} else {
		got := m.Clone()
		if p := got.RREF(); !equalInts(p, refPivots) || !got.Equal(ref) {
			t.Fatalf("%s: RREF pivots %v, big.Rat %v; RREF\n%vbig.Rat\n%v", name, p, refPivots, got, ref)
		}
		if r := m.Rank(); r != len(refPivots) {
			t.Fatalf("%s: Rank %d, big.Rat %d", name, r, len(refPivots))
		}
		k, free := m.Kernel()
		rk, rfree := m.kernelVia((*Matrix).rrefRat)
		if !equalInts(free, rfree) || !k.Equal(rk) {
			t.Fatalf("%s: Kernel free %v, big.Rat %v; kernel\n%vbig.Rat\n%v", name, free, rfree, k, rk)
		}
	}
	if !m.Equal(before) {
		t.Fatalf("%s: RREF, Rank, Kernel or IndependentRows changed the matrix", name)
	}
	return ok
}

// TestWidthsAgreeOnRandomIntegers: on random sparse integer matrices
// with entries up to ±20·40,000 (the yeast biomass coefficient), both
// widths return the same RREF, Rank, Kernel and IndependentRows. About
// half of them overflow machine words somewhere and fall back.
func TestWidthsAgreeOnRandomIntegers(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	narrow, wide := 0, 0
	for n := 0; n < 2000; n++ {
		r, c := rng.Intn(9)+1, rng.Intn(11)+1
		m := New(r, c)
		for i := range m.a {
			switch rng.Intn(3) {
			case 0:
				m.a[i].SetInt64(int64(rng.Intn(41) - 20))
			case 1:
				m.a[i].SetInt64(int64(rng.Intn(41)-20) * 40000)
			}
		}
		for _, tr := range []bool{false, true} {
			if checkWidths(t, fmt.Sprintf("random %d (%dx%d, transpose %v)", n, r, c, tr), m, tr) {
				narrow++
			} else {
				wide++
			}
		}
	}
	t.Logf("%d eliminations stayed narrow, %d fell back", narrow, wide)
	if narrow == 0 || wide == 0 {
		t.Fatalf("%d eliminations stayed narrow and %d fell back; want both", narrow, wide)
	}
}

// TestWidthsFallBackAtLatePivot: matrices whose first pivots fit machine
// words and whose last one does not — a numerator product, a denominator
// product, the denominator of a difference, a sum of integers, and an
// input entry that no word may hold — fall back, return the big.Rat result and leave their
// input as it was, counting one fallback per elimination.
func TestWidthsFallBackAtLatePivot(t *testing.T) {
	frac := func(n, d int64) *big.Rat { return big.NewRat(n, d) }
	// bidiagonal is the n×(n+1) matrix with 1 on the diagonal and v just
	// right of it: eliminating it forms the products v², v³, …, vⁿ, so
	// only the last pivot's back-substitution passes 2⁶².
	bidiagonal := func(n int, v *big.Rat) *Matrix {
		m := New(n, n+1)
		for i := 0; i < n; i++ {
			m.SetInt(i, i, 1)
			m.Set(i, i+1, v)
		}
		return m
	}
	// sum holds 1/p and 1/q with p, q odd neighbours near 3·10⁹, so
	// coprime: its second pivot forms −1/p − 1/q, whose denominator p·q
	// passes 2⁶².
	sum := FromInts(ints(
		[]int64{1, 0, 0},
		[]int64{0, 1, 0},
		[]int64{1, 1, 0},
	))
	sum.Set(0, 2, frac(1, 3000000001))
	sum.Set(1, 2, frac(1, 3000000003))
	// integers sums A = 2⁶² − 1 into its last row four times: the second
	// pivot forms −2A, an integer past 2⁶²; unchecked, the third sum
	// would wrap and the fourth land on 4.
	integers := New(5, 6)
	for i := 0; i < 4; i++ {
		integers.SetInt(i, i, 1)
		integers.SetInt(i, 4, 1<<62-1)
		integers.SetInt(4, i, 1)
	}
	integers.SetInt(4, 5, 1)
	minInt := FromInts(ints([]int64{1, 2, 0}, []int64{0, 1, 1}, []int64{0, 0, math.MinInt64}))
	for _, tc := range []struct {
		name string
		m    *Matrix
	}{
		{"numerator product 2¹⁶ᵏ", bidiagonal(4, frac(1<<16, 1))},
		{"denominator product 2⁻¹⁶ᵏ", bidiagonal(4, frac(-1, 1<<16))},
		{"difference of coprime fractions", sum},
		{"sum of integers", integers},
		{"math.MinInt64 pivot", minInt},
	} {
		// IndependentRows of mᵀ eliminates m through the transposing copy.
		if checkWidths(t, tc.name, tc.m, false) || checkWidths(t, tc.name+" (IndependentRows of mᵀ)", tc.m.T(), true) {
			t.Fatalf("%s: stayed on machine words", tc.name)
		}
		start := fallbacks.Load()
		tc.m.Rank()
		tc.m.Kernel()
		tc.m.Clone().RREF()
		if got := fallbacks.Load() - start; got != 3 {
			t.Fatalf("%s: %d fallbacks over Rank, Kernel and RREF, want 3", tc.name, got)
		}
	}
}

// FuzzRREFWidths holds the machine-word elimination to the big.Rat one
// on fuzzed matrices of up to 6×6 entries, each a 64-bit numerator over
// a one-byte denominator; entries near 2⁶² overflow at once or after a
// product or two.
func FuzzRREFWidths(f *testing.F) {
	entry := func(n int64, d byte) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, uint64(n)), d)
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	f.Add(uint8(2), uint8(2), cat(entry(2, 0), entry(0, 0), entry(0, 0), entry(5, 0)))
	f.Add(uint8(3), uint8(3), cat(entry(1, 0), entry(2, 2), entry(3, 0), entry(2, 0), entry(4, 4), entry(6, 0), entry(1, 0), entry(1, 0), entry(40141, 6)))
	f.Add(uint8(2), uint8(3), cat(entry(1, 0), entry(1<<31, 0), entry(0, 0), entry(0, 0), entry(1, 0), entry(1<<31+1, 0)))
	f.Add(uint8(2), uint8(2), cat(entry(1<<62-1, 0), entry(3, 0), entry(1<<62-3, 2), entry(-(1<<62)+1, 0)))
	f.Add(uint8(2), uint8(2), cat(entry(1<<62, 0), entry(1, 0), entry(1, 0), entry(1, 0)))
	f.Fuzz(func(t *testing.T, r, c uint8, data []byte) {
		rows, cols := int(r%6)+1, int(c%6)+1
		m := New(rows, cols)
		for i := range m.a {
			if len(data) < 9 {
				break
			}
			m.a[i].SetFrac64(int64(binary.LittleEndian.Uint64(data)), int64(data[8])+1)
			data = data[9:]
		}
		checkWidths(t, "fuzzed", m, false)
		checkWidths(t, "fuzzed", m, true)
	})
}
