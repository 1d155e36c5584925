package ratmat

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func ints(rows ...[]int64) [][]int64 { return rows }

func TestFromIntsAndAccessors(t *testing.T) {
	m := FromInts(ints([]int64{1, -2}, []int64{0, 3}))
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(0, 1).Cmp(big.NewRat(-2, 1)) != 0 {
		t.Fatalf("At(0,1) = %v", m.At(0, 1))
	}
	m.SetInt(1, 0, 7)
	if m.At(1, 0).Cmp(big.NewRat(7, 1)) != 0 {
		t.Fatal("SetInt failed")
	}
	m.Set(0, 0, big.NewRat(1, 3))
	if m.At(0, 0).Cmp(big.NewRat(1, 3)) != 0 {
		t.Fatal("Set failed")
	}
}

func TestRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on ragged input")
		}
	}()
	FromInts(ints([]int64{1, 2}, []int64{3}))
}

func TestIndexPanics(t *testing.T) {
	m := New(2, 2)
	for i, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.SelectColumns([]int{5}) },
		func() { m.SelectRows([]int{-1}) },
		func() { m.Mul(New(3, 3)) },
		func() { m.MulVec(make([]*big.Rat, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMul(t *testing.T) {
	a := FromInts(ints([]int64{1, 2}, []int64{3, 4}))
	b := FromInts(ints([]int64{5, 6}, []int64{7, 8}))
	got := a.Mul(b)
	want := FromInts(ints([]int64{19, 22}, []int64{43, 50}))
	if !got.Equal(want) {
		t.Fatalf("Mul = \n%v want \n%v", got, want)
	}
}

func TestTranspose(t *testing.T) {
	a := FromInts(ints([]int64{1, 2, 3}, []int64{4, 5, 6}))
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("T shape = %dx%d", at.Rows(), at.Cols())
	}
	if at.At(2, 1).Cmp(big.NewRat(6, 1)) != 0 {
		t.Fatal("T entries wrong")
	}
	if !a.T().T().Equal(a) {
		t.Fatal("double transpose not identity")
	}
}

func TestRREFIdentity(t *testing.T) {
	m := FromInts(ints([]int64{2, 0}, []int64{0, 5}))
	pivots := m.RREF()
	if len(pivots) != 2 || pivots[0] != 0 || pivots[1] != 1 {
		t.Fatalf("pivots = %v", pivots)
	}
	want := FromInts(ints([]int64{1, 0}, []int64{0, 1}))
	if !m.Equal(want) {
		t.Fatalf("RREF = \n%v", m)
	}
}

func TestRREFDependentRows(t *testing.T) {
	m := FromInts(ints(
		[]int64{1, 2, 3},
		[]int64{2, 4, 6},
		[]int64{1, 1, 1},
	))
	pivots := m.RREF()
	if len(pivots) != 2 {
		t.Fatalf("rank = %d, want 2", len(pivots))
	}
	// Third row must be zero.
	for j := 0; j < 3; j++ {
		if m.At(2, j).Sign() != 0 {
			t.Fatalf("row 2 not eliminated: %v", m)
		}
	}
}

func TestRankAndNullity(t *testing.T) {
	m := FromInts(ints(
		[]int64{1, 0, -1, 2},
		[]int64{0, 1, 1, -1},
		[]int64{1, 1, 0, 1},
	))
	if r := m.Rank(); r != 2 {
		t.Fatalf("Rank = %d, want 2", r)
	}
	// Rank must not modify the receiver.
	if m.At(2, 0).Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatal("Rank modified receiver")
	}
}

func TestKernelStructure(t *testing.T) {
	// Paper toy-network style: wide matrix, kernel of dimension c - rank.
	m := FromInts(ints(
		[]int64{1, -1, 0, 0, -1, 0, 0, 0},
		[]int64{0, 0, 0, 0, 1, -1, -1, -1},
		[]int64{0, 1, -1, 0, 0, 1, 0, 0},
		[]int64{0, 0, 1, -1, 0, 0, 0, 0},
	))
	k, free := m.Kernel()
	if k.Cols() != m.Cols()-m.Rank() {
		t.Fatalf("kernel dim = %d, want %d", k.Cols(), m.Cols()-m.Rank())
	}
	if len(free) != k.Cols() {
		t.Fatalf("free cols = %v", free)
	}
	// Identity structure on free rows.
	for j := 0; j < k.Cols(); j++ {
		for i := 0; i < k.Cols(); i++ {
			want := int64(0)
			if i == j {
				want = 1
			}
			if k.At(free[i], j).Cmp(big.NewRat(want, 1)) != 0 {
				t.Fatalf("kernel identity structure violated at free row %d col %d", i, j)
			}
		}
	}
	// m·k == 0 exactly.
	if !m.Mul(k).IsZero() {
		t.Fatalf("m·kernel != 0:\n%v", m.Mul(k))
	}
}

func TestKernelFullRankSquare(t *testing.T) {
	m := FromInts(ints([]int64{1, 2}, []int64{3, 4}))
	k, free := m.Kernel()
	if k.Cols() != 0 || len(free) != 0 {
		t.Fatalf("nonsingular matrix should have empty kernel, got %d cols", k.Cols())
	}
}

func TestIndependentRows(t *testing.T) {
	m := FromInts(ints(
		[]int64{1, 2, 3},
		[]int64{2, 4, 6}, // dependent on row 0
		[]int64{0, 1, 1},
		[]int64{1, 3, 4}, // row0 + row2
	))
	rows := m.IndependentRows()
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Fatalf("IndependentRows = %v, want [0 2]", rows)
	}
}

func TestSelectRowsCols(t *testing.T) {
	m := FromInts(ints([]int64{1, 2, 3}, []int64{4, 5, 6}))
	c := m.SelectColumns([]int{2, 0})
	if c.At(0, 0).Cmp(big.NewRat(3, 1)) != 0 || c.At(1, 1).Cmp(big.NewRat(4, 1)) != 0 {
		t.Fatalf("SelectColumns wrong:\n%v", c)
	}
	r := m.SelectRows([]int{1})
	if r.Rows() != 1 || r.At(0, 2).Cmp(big.NewRat(6, 1)) != 0 {
		t.Fatalf("SelectRows wrong:\n%v", r)
	}
}

func TestMulVec(t *testing.T) {
	m := FromInts(ints([]int64{1, -1, 0}, []int64{0, 1, -1}))
	x := []*big.Rat{big.NewRat(2, 1), big.NewRat(2, 1), big.NewRat(2, 1)}
	y := m.MulVec(x)
	for i, v := range y {
		if v.Sign() != 0 {
			t.Fatalf("y[%d] = %v, want 0", i, v)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromInts(ints([]int64{1}))
	n := m.Clone()
	n.SetInt(0, 0, 9)
	if m.At(0, 0).Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatal("Clone shares storage")
	}
}

// randomIntMatrix builds a small random integer matrix for property tests.
func randomIntMatrix(r, c int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.SetInt(i, j, int64(rng.Intn(7)-3))
		}
	}
	return m
}

// Property: kernel always satisfies m·K == 0 and has dimension c - rank.
func TestQuickKernel(t *testing.T) {
	f := func(seed int64, rRaw, cRaw uint8) bool {
		r := int(rRaw)%5 + 1
		c := int(cRaw)%6 + 1
		m := randomIntMatrix(r, c, seed)
		k, free := m.Kernel()
		if k.Cols() != c-m.Rank() || len(free) != k.Cols() {
			return false
		}
		return m.Mul(k).IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: rank(m) == rank(mᵀ) and rank ≤ min(r, c).
func TestQuickRankTranspose(t *testing.T) {
	f := func(seed int64, rRaw, cRaw uint8) bool {
		r := int(rRaw)%5 + 1
		c := int(cRaw)%5 + 1
		m := randomIntMatrix(r, c, seed)
		rk := m.Rank()
		if rk > r || rk > c {
			return false
		}
		return rk == m.T().Rank()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: RREF is idempotent.
func TestQuickRREFIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		m := randomIntMatrix(4, 5, seed)
		m.RREF()
		before := m.Clone()
		m.RREF()
		return m.Equal(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// rrefDense is the dense reference elimination RREF replaced: it scales
// and subtracts every entry from the pivot column rightwards, zeros
// included.
func (m *Matrix) rrefDense() (pivotCols []int) {
	tmp := new(big.Rat)
	row := 0
	for col := 0; col < m.c && row < m.r; col++ {
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
		inv := new(big.Rat).Inv(&m.a[row*m.c+col])
		for k := col; k < m.c; k++ {
			m.a[row*m.c+k].Mul(&m.a[row*m.c+k], inv)
		}
		for i := 0; i < m.r; i++ {
			if i == row || m.a[i*m.c+col].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Set(&m.a[i*m.c+col])
			for k := col; k < m.c; k++ {
				tmp.Mul(f, &m.a[row*m.c+k])
				m.a[i*m.c+k].Sub(&m.a[i*m.c+k], tmp)
			}
		}
		pivotCols = append(pivotCols, col)
		row++
	}
	return pivotCols
}

// kernelDense builds Kernel's basis from the dense reference elimination.
func (m *Matrix) kernelDense() (*Matrix, []int) {
	rref := m.Clone()
	pivots := rref.rrefDense()
	isPivot := make([]bool, m.c)
	for _, p := range pivots {
		isPivot[p] = true
	}
	var free []int
	for j := 0; j < m.c; j++ {
		if !isPivot[j] {
			free = append(free, j)
		}
	}
	k := New(m.c, len(free))
	for jj, f := range free {
		k.SetInt(f, jj, 1)
		for i, p := range pivots {
			k.At(p, jj).Neg(rref.At(i, f))
		}
	}
	return k, free
}

// checkMatchesDense fails unless RREF, Kernel and IndependentRows of m
// equal the dense reference's, pivot for pivot and entry for entry.
func checkMatchesDense(t *testing.T, name string, m *Matrix) {
	t.Helper()
	sparse, dense := m.Clone(), m.Clone()
	sp, dp := sparse.RREF(), dense.rrefDense()
	if !equalInts(sp, dp) || !sparse.Equal(dense) {
		t.Fatalf("%s: RREF pivots %v, dense %v; RREF\n%vdense\n%v", name, sp, dp, sparse, dense)
	}
	k, free := m.Kernel()
	dk, dfree := m.kernelDense()
	if !equalInts(free, dfree) || !k.Equal(dk) {
		t.Fatalf("%s: Kernel free %v, dense %v; kernel\n%vdense\n%v", name, free, dfree, k, dk)
	}
	if got, want := m.IndependentRows(), m.T().rrefDense(); !equalInts(got, want) {
		t.Fatalf("%s: IndependentRows %v, dense %v", name, got, want)
	}
}

func equalInts(a, b []int) bool {
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
