package ratmat

import (
	"math/big"
	"math/bits"
	"sync/atomic"
)

// limit bounds the inputs, every product and every integer the
// machine-word elimination forms. The difference of two values below it
// cannot wrap, and no value is ever math.MinInt64, whose negation wraps.
const limit = 1 << 62

// fallbacks counts eliminations whose values left machine words, so that
// the input was eliminated again in big.Rat.
var fallbacks atomic.Int64

// observed, when a test sets it, sees every matrix handed to the
// elimination and whether its transpose is eliminated.
var observed func(m *Matrix, transpose bool)

// word is the rational n/d in lowest terms with 0 < d < limit. An
// integer (d = 1) also has |n| < limit. A fraction's numerator may be a
// difference of two products, up to 2⁶³ − 2, and only ever enters
// checked products again.
type word struct{ n, d int64 }

// words is a machine-word copy of a matrix, row-major like Matrix.
type words struct {
	r, c int
	a    []word
}

// wordOf converts x, reporting false when a part reaches limit. A
// big.Rat is always in lowest terms with a positive denominator.
func wordOf(x *big.Rat) (word, bool) {
	num := x.Num()
	if !num.IsInt64() {
		return word{}, false
	}
	w := word{n: num.Int64(), d: 1}
	if !x.IsInt() {
		den := x.Denom()
		if !den.IsInt64() {
			return word{}, false
		}
		w.d = den.Int64()
	}
	return w, w.n > -limit && w.n < limit && w.d < limit
}

// set stores w into x.
func (w word) set(x *big.Rat) {
	if w.d == 1 {
		x.SetInt64(w.n)
	} else {
		x.SetFrac64(w.n, w.d)
	}
}

// narrow returns a machine-word copy of m, or of mᵀ when transpose is
// set, and false when an entry does not fit.
func (m *Matrix) narrow(transpose bool) (*words, bool) {
	w := &words{r: m.r, c: m.c, a: make([]word, len(m.a))}
	if transpose {
		w.r, w.c = m.c, m.r
	}
	for i := 0; i < m.r; i++ {
		for j := 0; j < m.c; j++ {
			x, ok := wordOf(&m.a[i*m.c+j])
			if !ok {
				return nil, false
			}
			if transpose {
				w.a[j*m.r+i] = x
			} else {
				w.a[i*m.c+j] = x
			}
		}
	}
	return w, true
}

// eliminateWords reduces a machine-word copy of m (or mᵀ) to reduced row
// echelon form. It reports false, having left m untouched, when a value
// leaves machine words; the caller then eliminates m in big.Rat.
func (m *Matrix) eliminateWords(transpose bool) (*words, []int, bool) {
	if observed != nil {
		observed(m, transpose)
	}
	w, ok := m.narrow(transpose)
	var pivots []int
	if ok {
		pivots, ok = w.rref()
	}
	if !ok {
		fallbacks.Add(1)
		return nil, nil, false
	}
	return w, pivots, true
}

// rref is Matrix.rrefRat on machine words: the same pivot choice and the
// same sparse pivot-row steps. It reports false at the first value that
// would reach limit, leaving w part-way.
func (w *words) rref() (pivotCols []int, ok bool) {
	nz := make([]int, 0, w.c)
	row := 0
	for col := 0; col < w.c && row < w.r; col++ {
		pivot := -1
		for i := row; i < w.r; i++ {
			if w.a[i*w.c+col].n != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		if pivot != row {
			ri, rj := w.a[row*w.c:(row+1)*w.c], w.a[pivot*w.c:(pivot+1)*w.c]
			for k := range ri {
				ri[k], rj[k] = rj[k], ri[k]
			}
		}
		prow := w.a[row*w.c : (row+1)*w.c]
		nz = nz[:0]
		for k := col + 1; k < w.c; k++ {
			if prow[k].n != 0 {
				nz = append(nz, k)
			}
		}
		// A fraction's numerator may pass limit, so inv's denominator
		// may too; mulWords only forms checked products from it.
		inv := word{n: prow[col].d, d: prow[col].n}
		if inv.d < 0 {
			inv = word{n: -inv.n, d: -inv.d}
		}
		prow[col] = word{n: 1, d: 1}
		for _, k := range nz {
			if prow[k], ok = mulWords(prow[k], inv); !ok {
				return nil, false
			}
		}
		for i := 0; i < w.r; i++ {
			ri := w.a[i*w.c : (i+1)*w.c]
			if i == row || ri[col].n == 0 {
				continue
			}
			f := ri[col]
			ri[col] = word{n: 0, d: 1}
			for _, k := range nz {
				t, ok := mulWords(f, prow[k])
				if ok {
					ri[k], ok = subWords(ri[k], t)
				}
				if !ok {
					return nil, false
				}
			}
		}
		pivotCols = append(pivotCols, col)
		row++
	}
	return pivotCols, true
}

// mulWords returns x·y in lowest terms: cancelling across first keeps
// both products reduced.
func mulWords(x, y word) (word, bool) {
	if x.d == 1 && y.d == 1 {
		n, ok := mulChecked(x.n, y.n)
		return word{n: n, d: 1}, ok
	}
	if x.n == 0 || y.n == 0 {
		return word{n: 0, d: 1}, true
	}
	g1, g2 := int64(gcd(abs(x.n), uint64(y.d))), int64(gcd(abs(y.n), uint64(x.d)))
	n, okn := mulChecked(x.n/g1, y.n/g2)
	d, okd := mulChecked(x.d/g2, y.d/g1)
	return word{n: n, d: d}, okn && okd
}

// subWords returns x − y in lowest terms (Knuth's addition over the gcd
// of the denominators, TAOCP §4.5.1).
func subWords(x, y word) (word, bool) {
	if x.d == 1 && y.d == 1 {
		n := x.n - y.n // |x.n|, |y.n| < limit, so no wrap
		return word{n: n, d: 1}, n > -limit && n < limit
	}
	if y.n == 0 {
		return x, true
	}
	g := int64(gcd(uint64(x.d), uint64(y.d)))
	a, oka := mulChecked(x.n, y.d/g)
	b, okb := mulChecked(y.n, x.d/g)
	if !oka || !okb {
		return word{}, false
	}
	n := a - b
	if n == 0 {
		return word{n: 0, d: 1}, true
	}
	// A result with d = 1 needs g2 = g ≥ 2 (g = 1 means both d are 1),
	// so its |n| is at most (2⁶³ − 2)/2, below limit.
	g2 := int64(gcd(abs(n), uint64(g)))
	d, ok := mulChecked(x.d/g, y.d/g2)
	return word{n: n / g2, d: d}, ok
}

// mulChecked returns a·b, reporting false when |a·b| reaches limit.
func mulChecked(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(abs(a), abs(b))
	if hi != 0 || lo >= limit {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

func abs(a int64) uint64 {
	if a < 0 {
		return uint64(-a)
	}
	return uint64(a)
}

// gcd is the binary gcd of a and b, not both zero.
func gcd(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
	}
	return a << shift
}
