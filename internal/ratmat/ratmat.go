// Package ratmat implements dense exact rational matrices on top of
// math/big.Rat, eliminated on machine words.
//
// The Nullspace Algorithm needs a handful of exact linear-algebra
// primitives: reduced row echelon form, rank, right-kernel bases, and
// matrix products. Stoichiometric coefficients are integers (the yeast
// biomass reaction has coefficients up to 40141), so doing the one-time
// preprocessing — network compression, kernel construction, redundant-row
// elimination — in exact arithmetic removes any tolerance tuning from the
// correctness-critical setup. The per-candidate hot path uses float64
// (package linalg); exact arithmetic here also backs the test-suite
// verification of every computed flux mode.
//
// Storage is dense but the arithmetic is not: entries live inline in one
// []big.Rat per matrix, and RREF scales and subtracts only the columns
// where the pivot row is non-zero. Stoichiometric rows are sparse, so that
// is most of what a dense elimination would spend; the reduced row echelon
// form is unique, so the result is the dense one entry for entry.
//
// One elimination runs at two widths. RREF, Rank, Kernel and
// IndependentRows eliminate a copy of the matrix held as int64
// numerator/denominator pairs in lowest terms, every product checked
// below 2⁶²; on the first value past that bound the copy is abandoned
// and the untouched input is eliminated in big.Rat instead. The values
// alone choose the width. Kept in lowest terms, entries stay small:
// eliminating the bundled networks and their knock-outs never stores a
// numerator or denominator wider than 19 bits nor forms a product wider
// than 27, so none of them falls back.
package ratmat

import (
	"fmt"
	"math/big"
	"math/bits"
	"strings"
	"unsafe"
)

// Matrix is a dense rows×cols matrix of exact rationals. The zero value
// is not usable; construct with New or FromInts.
type Matrix struct {
	r, c int
	a    []big.Rat // row-major, stored inline: one allocation per matrix
}

// New returns an r×c zero matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("ratmat: negative dimension")
	}
	return &Matrix{r: r, c: c, a: make([]big.Rat, r*c)}
}

// FromInts builds a matrix from integer rows. All rows must have equal
// length.
func FromInts(rows [][]int64) *Matrix {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("ratmat: ragged row %d (%d != %d)", i, len(row), c))
		}
		for j, v := range row {
			m.a[i*c+j].SetInt64(v)
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.r }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.c }

// At returns the entry at (i, j). The returned value aliases the matrix
// entry; mutate through Set to keep intent clear.
func (m *Matrix) At(i, j int) *big.Rat {
	m.check(i, j)
	return &m.a[i*m.c+j]
}

// Set assigns entry (i, j) to v (copied).
func (m *Matrix) Set(i, j int, v *big.Rat) {
	m.check(i, j)
	m.a[i*m.c+j].Set(v)
}

// SetInt assigns entry (i, j) to the integer v.
func (m *Matrix) SetInt(i, j int, v int64) {
	m.check(i, j)
	m.a[i*m.c+j].SetInt64(v)
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.r || j < 0 || j >= m.c {
		panic(fmt.Sprintf("ratmat: index (%d,%d) out of %dx%d", i, j, m.r, m.c))
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	n := New(m.r, m.c)
	for i := range m.a {
		setNonzero(&n.a[i], &m.a[i])
	}
	return n
}

// setNonzero copies x into the zero entry dst. A zero x is skipped:
// big.Rat's Set allocates a denominator word even for zero, and a
// stoichiometric matrix is mostly zeros.
func setNonzero(dst, x *big.Rat) {
	if x.Sign() != 0 {
		dst.Set(x)
	}
}

// Equal reports whether m and n have identical shape and entries.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.r != n.r || m.c != n.c {
		return false
	}
	for i := range m.a {
		if m.a[i].Cmp(&n.a[i]) != 0 {
			return false
		}
	}
	return true
}

// IsZero reports whether every entry is zero.
func (m *Matrix) IsZero() bool {
	for i := range m.a {
		if m.a[i].Sign() != 0 {
			return false
		}
	}
	return true
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.c, m.r)
	for i := 0; i < m.r; i++ {
		for j := 0; j < m.c; j++ {
			setNonzero(&t.a[j*m.r+i], &m.a[i*m.c+j])
		}
	}
	return t
}

// Mul returns m·n.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	if m.c != n.r {
		panic(fmt.Sprintf("ratmat: dimension mismatch %dx%d · %dx%d", m.r, m.c, n.r, n.c))
	}
	out := New(m.r, n.c)
	tmp := new(big.Rat)
	for i := 0; i < m.r; i++ {
		for k := 0; k < m.c; k++ {
			mik := &m.a[i*m.c+k]
			if mik.Sign() == 0 {
				continue
			}
			for j := 0; j < n.c; j++ {
				nkj := &n.a[k*n.c+j]
				if nkj.Sign() == 0 {
					continue
				}
				tmp.Mul(mik, nkj)
				out.a[i*n.c+j].Add(&out.a[i*n.c+j], tmp)
			}
		}
	}
	return out
}

// MulVec returns m·x for a column vector x of length Cols.
func (m *Matrix) MulVec(x []*big.Rat) []*big.Rat {
	if len(x) != m.c {
		panic("ratmat: vector length mismatch")
	}
	out := make([]*big.Rat, m.r)
	tmp := new(big.Rat)
	for i := 0; i < m.r; i++ {
		out[i] = new(big.Rat)
		for j := 0; j < m.c; j++ {
			if m.a[i*m.c+j].Sign() == 0 || x[j].Sign() == 0 {
				continue
			}
			tmp.Mul(&m.a[i*m.c+j], x[j])
			out[i].Add(out[i], tmp)
		}
	}
	return out
}

// SelectColumns returns a new matrix consisting of the given columns, in
// the given order.
func (m *Matrix) SelectColumns(cols []int) *Matrix {
	out := New(m.r, len(cols))
	for j, cj := range cols {
		if cj < 0 || cj >= m.c {
			panic(fmt.Sprintf("ratmat: column %d out of range", cj))
		}
		for i := 0; i < m.r; i++ {
			setNonzero(&out.a[i*out.c+j], &m.a[i*m.c+cj])
		}
	}
	return out
}

// SelectRows returns a new matrix consisting of the given rows, in order.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	out := New(len(rows), m.c)
	for i, ri := range rows {
		if ri < 0 || ri >= m.r {
			panic(fmt.Sprintf("ratmat: row %d out of range", ri))
		}
		for j := 0; j < m.c; j++ {
			setNonzero(&out.a[i*out.c+j], &m.a[ri*m.c+j])
		}
	}
	return out
}

// swapRows exchanges rows i and j in place. Exchanging the big.Rat
// values moves their backing words with them, so no entry is shared.
func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.a[i*m.c:(i+1)*m.c], m.a[j*m.c:(j+1)*m.c]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// RREF reduces m to reduced row echelon form in place and returns the
// pivot column indices, one per non-zero row, in increasing order. The
// elimination runs on machine words and writes its result back; m is
// eliminated in big.Rat instead when a value leaves them.
func (m *Matrix) RREF() (pivotCols []int) {
	w, pivots, ok := m.eliminateWords(false)
	if !ok {
		return m.rrefRat()
	}
	for i, x := range w.a {
		x.set(&m.a[i])
	}
	return pivots
}

// rrefRat is RREF in big.Rat, in place.
//
// Each step touches only the columns where the pivot row is non-zero:
// scaling or subtracting a zero entry leaves every value as it was, and
// stoichiometric pivot rows are sparse. The reduced row echelon form is
// unique, so the result equals a dense elimination entry for entry.
func (m *Matrix) rrefRat() (pivotCols []int) {
	var tmp, inv, f big.Rat
	nz := make([]int, 0, m.c)
	row := 0
	for col := 0; col < m.c && row < m.r; col++ {
		// Find a pivot: the first non-zero entry (exact arithmetic needs
		// no numerical pivoting).
		pivot := -1
		for i := row; i < m.r; i++ {
			if m.a[i*m.c+col].Sign() != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m.swapRows(row, pivot)
		// Every earlier column of the pivot row is already zero; the
		// pivot's own column is set to 1 and cleared elsewhere directly.
		prow := m.a[row*m.c : (row+1)*m.c]
		nz = nz[:0]
		for k := col + 1; k < m.c; k++ {
			if prow[k].Sign() != 0 {
				nz = append(nz, k)
			}
		}
		// Normalize the pivot row.
		inv.Inv(&prow[col])
		prow[col].SetInt64(1)
		for _, k := range nz {
			prow[k].Mul(&prow[k], &inv)
		}
		// Eliminate the column everywhere else.
		for i := 0; i < m.r; i++ {
			ri := m.a[i*m.c : (i+1)*m.c]
			if i == row || ri[col].Sign() == 0 {
				continue
			}
			f.Set(&ri[col])
			ri[col].SetInt64(0)
			for _, k := range nz {
				tmp.Mul(&f, &prow[k])
				ri[k].Sub(&ri[k], &tmp)
			}
		}
		pivotCols = append(pivotCols, col)
		row++
	}
	return pivotCols
}

// Rank returns the rank of m (m is not modified).
func (m *Matrix) Rank() int {
	if _, pivots, ok := m.eliminateWords(false); ok {
		return len(pivots)
	}
	return len(m.Clone().rrefRat())
}

// Kernel returns a basis for the right nullspace of m as the columns of a
// Cols×nullity matrix, along with the free-column indices that carry the
// identity structure: Kernel()[freeCols[j], j] == 1 and
// Kernel()[freeCols[i], j] == 0 for i ≠ j. m is not modified.
func (m *Matrix) Kernel() (k *Matrix, freeCols []int) {
	w, pivots, ok := m.eliminateWords(false)
	var rref *Matrix
	if !ok {
		rref = m.Clone()
		pivots = rref.rrefRat()
	}
	isPivot := make([]bool, m.c)
	for _, p := range pivots {
		isPivot[p] = true
	}
	for j := 0; j < m.c; j++ {
		if !isPivot[j] {
			freeCols = append(freeCols, j)
		}
	}
	k = New(m.c, len(freeCols))
	for jj, f := range freeCols {
		k.a[f*k.c+jj].SetInt64(1)
		for i, p := range pivots {
			dst := &k.a[p*k.c+jj]
			if w != nil {
				if x := w.a[i*w.c+f]; x.n != 0 {
					word{n: -x.n, d: x.d}.set(dst)
				}
			} else if v := &rref.a[i*rref.c+f]; v.Sign() != 0 {
				dst.Neg(v)
			}
		}
	}
	return k, freeCols
}

// IndependentRows returns the indices of a maximal set of linearly
// independent rows of m, in increasing order (the rows kept after removing
// redundant conservation relations).
func (m *Matrix) IndependentRows() []int {
	// Row space of m = column space of mᵀ; RREF pivot columns of mᵀ are
	// the independent rows of m.
	if _, pivots, ok := m.eliminateWords(true); ok {
		return pivots
	}
	return m.T().rrefRat()
}

// RatBytes estimates the resident size of x: its header and the words
// of its numerator and denominator.
func RatBytes(x *big.Rat) int64 {
	den := 1 // an integer's denominator is the word 1
	if !x.IsInt() {
		den = len(x.Denom().Bits())
	}
	return int64(unsafe.Sizeof(*x)) + int64((len(x.Num().Bits())+den)*bits.UintSize/8)
}

// Bytes estimates the resident size of m: its header and every entry.
func (m *Matrix) Bytes() int64 {
	n := int64(unsafe.Sizeof(*m))
	for i := range m.a {
		n += RatBytes(&m.a[i])
	}
	return n
}

// String renders the matrix with space-separated rational entries, one row
// per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.r; i++ {
		for j := 0; j < m.c; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(m.a[i*m.c+j].RatString())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
