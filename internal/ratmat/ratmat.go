// Package ratmat implements dense exact rational matrices on top of
// math/big.Rat.
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
package ratmat

import (
	"fmt"
	"math/big"
	"strings"
)

// Matrix is a dense rows×cols matrix of exact rationals. Entries are
// never nil. The zero value is not usable; construct with New, FromInts,
// or FromRats.
type Matrix struct {
	r, c int
	a    []*big.Rat // row-major
}

// New returns an r×c zero matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("ratmat: negative dimension")
	}
	m := &Matrix{r: r, c: c, a: make([]*big.Rat, r*c)}
	for i := range m.a {
		m.a[i] = new(big.Rat)
	}
	return m
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
	return m.a[i*m.c+j]
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
	n := &Matrix{r: m.r, c: m.c, a: make([]*big.Rat, len(m.a))}
	for i, v := range m.a {
		n.a[i] = new(big.Rat).Set(v)
	}
	return n
}

// Equal reports whether m and n have identical shape and entries.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.r != n.r || m.c != n.c {
		return false
	}
	for i := range m.a {
		if m.a[i].Cmp(n.a[i]) != 0 {
			return false
		}
	}
	return true
}

// IsZero reports whether every entry is zero.
func (m *Matrix) IsZero() bool {
	for _, v := range m.a {
		if v.Sign() != 0 {
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
			t.a[j*m.r+i].Set(m.a[i*m.c+j])
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
			mik := m.a[i*m.c+k]
			if mik.Sign() == 0 {
				continue
			}
			for j := 0; j < n.c; j++ {
				nkj := n.a[k*n.c+j]
				if nkj.Sign() == 0 {
					continue
				}
				tmp.Mul(mik, nkj)
				out.a[i*n.c+j].Add(out.a[i*n.c+j], tmp)
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
			tmp.Mul(m.a[i*m.c+j], x[j])
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
			out.a[i*out.c+j].Set(m.a[i*m.c+cj])
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
			out.a[i*out.c+j].Set(m.a[ri*m.c+j])
		}
	}
	return out
}

// swapRows exchanges rows i and j in place.
func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	for k := 0; k < m.c; k++ {
		m.a[i*m.c+k], m.a[j*m.c+k] = m.a[j*m.c+k], m.a[i*m.c+k]
	}
}

// RREF reduces m to reduced row echelon form in place and returns the
// pivot column indices, one per non-zero row, in increasing order.
func (m *Matrix) RREF() (pivotCols []int) {
	tmp := new(big.Rat)
	row := 0
	for col := 0; col < m.c && row < m.r; col++ {
		// Find a pivot: prefer entries with small representation by
		// taking the first non-zero (exact arithmetic needs no
		// numerical pivoting).
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
		// Normalize pivot row.
		inv := new(big.Rat).Inv(m.a[row*m.c+col])
		for k := col; k < m.c; k++ {
			m.a[row*m.c+k].Mul(m.a[row*m.c+k], inv)
		}
		// Eliminate the column everywhere else.
		for i := 0; i < m.r; i++ {
			if i == row || m.a[i*m.c+col].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Set(m.a[i*m.c+col])
			for k := col; k < m.c; k++ {
				tmp.Mul(f, m.a[row*m.c+k])
				m.a[i*m.c+k].Sub(m.a[i*m.c+k], tmp)
			}
		}
		pivotCols = append(pivotCols, col)
		row++
	}
	return pivotCols
}

// Rank returns the rank of m (m is not modified).
func (m *Matrix) Rank() int {
	return len(m.Clone().RREF())
}

// Kernel returns a basis for the right nullspace of m as the columns of a
// Cols×nullity matrix, along with the free-column indices that carry the
// identity structure: Kernel()[freeCols[j], j] == 1 and
// Kernel()[freeCols[i], j] == 0 for i ≠ j. m is not modified.
func (m *Matrix) Kernel() (k *Matrix, freeCols []int) {
	rref := m.Clone()
	pivots := rref.RREF()
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
	neg := new(big.Rat)
	for jj, f := range freeCols {
		k.a[f*k.c+jj].SetInt64(1)
		for i, p := range pivots {
			v := rref.a[i*rref.c+f]
			if v.Sign() != 0 {
				neg.Neg(v)
				k.a[p*k.c+jj].Set(neg)
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
	t := m.T()
	return t.RREF()
}

// Float64 returns the matrix converted to float64 rows.
func (m *Matrix) Float64() [][]float64 {
	out := make([][]float64, m.r)
	flat := make([]float64, m.r*m.c)
	for i := 0; i < m.r; i++ {
		out[i] = flat[i*m.c : (i+1)*m.c]
		for j := 0; j < m.c; j++ {
			f, _ := m.a[i*m.c+j].Float64()
			out[i][j] = f
		}
	}
	return out
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
