package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"elmocomp/internal/ratmat"
)

func rowMajor(rows [][]float64) (a []float64, r, c int) {
	r = len(rows)
	if r > 0 {
		c = len(rows[0])
	}
	a = make([]float64, 0, r*c)
	for _, row := range rows {
		a = append(a, row...)
	}
	return a, r, c
}

// maxAbsOf is the scan RankDeficiencyExceeds leaves to the caller that
// filled the matrix.
func maxAbsOf(a []float64) float64 {
	m := 0.0
	for _, v := range a {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

func TestRankBasic(t *testing.T) {
	cases := []struct {
		m    [][]float64
		want int
	}{
		{[][]float64{{1, 0}, {0, 1}}, 2},
		{[][]float64{{1, 2}, {2, 4}}, 1},
		{[][]float64{{0, 0}, {0, 0}}, 0},
		{[][]float64{{1, 2, 3}}, 1},
		{[][]float64{{1}, {2}, {3}}, 1},
		{[][]float64{{1, 0, -1}, {0, 1, 1}, {1, 1, 0}}, 2},
		{[][]float64{{1e-12, 0}, {0, 1}}, 1}, // tiny entry below relative tol
	}
	for i, tc := range cases {
		a, r, c := rowMajor(tc.m)
		if got := Rank(a, r, c, 0); got != tc.want {
			t.Errorf("case %d: Rank = %d, want %d", i, got, tc.want)
		}
	}
}

func TestRankScaleInvariance(t *testing.T) {
	m := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}} // rank 2
	for _, s := range []float64{1e-8, 1, 1e8} {
		scaled := make([][]float64, len(m))
		for i, row := range m {
			scaled[i] = make([]float64, len(row))
			for j, v := range row {
				scaled[i][j] = v * s
			}
		}
		a, r, c := rowMajor(scaled)
		if got := Rank(a, r, c, 0); got != 2 {
			t.Errorf("scale %g: Rank = %d, want 2", s, got)
		}
	}
}

func TestRankSmallBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short buffer")
		}
	}()
	Rank(make([]float64, 3), 2, 2, 0)
}

func TestRankDeficiencyExceeds(t *testing.T) {
	cases := []struct {
		m       [][]float64
		maxDef  int
		exceeds bool
		def     int
	}{
		// 3 columns, rank 3: deficiency 0.
		{[][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, 1, false, 0},
		// 3 columns, rank 2: deficiency 1.
		{[][]float64{{1, 0, 1}, {0, 1, 1}, {0, 0, 0}}, 1, false, 1},
		// 3 columns, rank 1: deficiency 2 > 1.
		{[][]float64{{1, 2, 3}, {2, 4, 6}}, 1, true, 0},
		// Zero matrix: all columns deficient.
		{[][]float64{{0, 0}, {0, 0}}, 1, true, 2},
		// More columns than rows: rows exhaust.
		{[][]float64{{1, 0, 0, 0}}, 1, true, 0},
		{[][]float64{{1, 0, 0, 0}}, 3, false, 3},
	}
	for i, tc := range cases {
		a, r, c := rowMajor(tc.m)
		var w Workspace
		exceeds, def := w.RankDeficiencyExceeds(a, r, c, maxAbsOf(a), 0, tc.maxDef)
		if exceeds != tc.exceeds {
			t.Errorf("case %d: exceeds = %v, want %v", i, exceeds, tc.exceeds)
		}
		if !exceeds && def != tc.def {
			t.Errorf("case %d: def = %d, want %d", i, def, tc.def)
		}
	}
}

// Property: RankDeficiencyExceeds agrees with Rank on random matrices
// when maxDef is large enough to avoid early exit.
func TestQuickDeficiencyMatchesRank(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(6)
		m := make([]float64, rows*cols)
		ref := make([]float64, rows*cols)
		for i := range m {
			m[i] = float64(rng.Intn(7) - 3)
			ref[i] = m[i]
		}
		rank := Rank(ref, rows, cols, 0)
		var w Workspace
		exceeds, def := w.RankDeficiencyExceeds(m, rows, cols, maxAbsOf(m), 0, cols)
		return !exceeds && def == cols-rank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkspaceGrows(t *testing.T) {
	w := NewWorkspace(1, 1)
	buf := w.Buffer(10, 10)
	if len(buf) != 100 {
		t.Fatalf("Buffer len = %d", len(buf))
	}
}

// Property: float64 rank agrees with the exact rational rank on random
// small-integer matrices (which are exactly representable).
func TestQuickRankMatchesExact(t *testing.T) {
	f := func(seed int64, rRaw, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := int(rRaw)%6 + 1
		c := int(cRaw)%6 + 1
		rows := make([][]int64, r)
		fl := make([][]float64, r)
		for i := range rows {
			rows[i] = make([]int64, c)
			fl[i] = make([]float64, c)
			for j := range rows[i] {
				v := int64(rng.Intn(9) - 4)
				rows[i][j] = v
				fl[i][j] = float64(v)
			}
		}
		exact := ratmat.FromInts(rows).Rank()
		a, rr, cc := rowMajor(fl)
		return Rank(a, rr, cc, 0) == exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRankTest35x36(b *testing.B) {
	// The shape of the Network I rank test before the identity block is
	// struck out: 36 rows gathered from a row-major 55×35 parent, the
	// largest magnitude tracked while gathering.
	rng := rand.New(rand.NewSource(7))
	const parentRows, cols = 55, 35
	m := make([]float64, parentRows*cols)
	for i := range m {
		if rng.Intn(4) == 0 {
			m[i] = float64(rng.Intn(5) - 2)
		}
	}
	w := NewWorkspace(cols+1, cols+1)
	sel := make([]int, 36)
	for i := range sel {
		sel[i] = rng.Intn(parentRows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := w.Buffer(len(sel), cols)
		maxAbs := 0.0
		for k, r := range sel {
			for j, v := range m[r*cols : (r+1)*cols] {
				buf[k*cols+j] = v
				maxAbs = math.Max(maxAbs, math.Abs(v))
			}
		}
		w.RankDeficiencyExceeds(buf, len(sel), cols, maxAbs, 0, cols)
	}
}
