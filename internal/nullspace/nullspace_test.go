package nullspace

import (
	"math"
	"testing"

	"elmocomp/internal/model"
	"elmocomp/internal/ratmat"
	"elmocomp/internal/reduce"
)

func toyProblem(t *testing.T, h Heuristics) (*Problem, *reduce.Reduced) {
	t.Helper()
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(red.N, red.Reversibilities(), h)
	if err != nil {
		t.Fatal(err)
	}
	return p, red
}

// exactKernel is the exact q×D kernel KernelRows scales: the basis of
// NExact's right nullspace whose first D rows are the identity. It is
// unique, so eliminating the pivot columns first and moving the rows
// back finds it.
func exactKernel(t *testing.T, p *Problem) *ratmat.Matrix {
	t.Helper()
	q, d := p.Q(), p.D
	order := make([]int, 0, q) // pivot columns, then identity columns
	for i := d; i < q; i++ {
		order = append(order, i)
	}
	for i := 0; i < d; i++ {
		order = append(order, i)
	}
	k, free := p.NExact.SelectColumns(order).Kernel()
	if len(free) != d || d > 0 && free[0] != q-d {
		t.Fatalf("NExact's identity columns are not its free columns: free %v, D %d", free, d)
	}
	back := make([]int, q)
	for pos, i := range order {
		back[i] = pos
	}
	return k.SelectRows(back)
}

func TestIdentityBlockStructure(t *testing.T) {
	p, _ := toyProblem(t, Heuristics{})
	kexact := exactKernel(t, p)
	q, d := p.Q(), p.D
	if q != 8 || d != 4 {
		t.Fatalf("toy problem q=%d D=%d, want 8/4 (paper: 8 reactions, kernel dim 4)", q, d)
	}
	// Identity block: the exact kernel and KernelRows are δ_ij for i < D.
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			exact, _ := kexact.At(i, j).Float64()
			if exact != want || p.KernelRows[i*d+j] != want {
				t.Fatalf("identity block broken at (%d,%d): exact %v, float %v", i, j, exact, p.KernelRows[i*d+j])
			}
		}
	}
	// N·K == 0 exactly.
	if !p.NExact.Mul(kexact).IsZero() {
		t.Fatal("NExact·K != 0")
	}
}

func TestIdentityRowsAreIrreversible(t *testing.T) {
	p, _ := toyProblem(t, Heuristics{})
	for i := 0; i < p.D; i++ {
		if p.Rev[i] {
			t.Fatalf("identity row %d is reversible — backward modes would be lost", i)
		}
	}
}

func TestReversibleRowsLastHeuristic(t *testing.T) {
	p, red := toyProblem(t, Heuristics{})
	// Paper's example: identity rows then irreversible pivots, with the
	// reversible rows r6r, r8r at the bottom.
	names := make([]string, p.Q())
	for i, c := range p.Perm {
		names[i] = red.Cols[c].Name
	}
	last2 := map[string]bool{names[p.Q()-1]: true, names[p.Q()-2]: true}
	if !last2["r6r"] || !last2["r8r"] {
		t.Fatalf("reversible rows not last: order %v", names)
	}
	// Disabling the heuristic should be accepted (order then unspecified
	// but the problem still valid).
	p2, _ := toyProblem(t, Heuristics{DisableReversibleLast: true, DisableNonzeroOrder: true})
	if p2.Q() != p.Q() || p2.D != p.D {
		t.Fatal("heuristic flags changed problem dimensions")
	}
}

func TestNonzeroOrderHeuristic(t *testing.T) {
	p, _ := toyProblem(t, Heuristics{})
	kexact := exactKernel(t, p)
	nonzeros := func(row int) int {
		c := 0
		for j := 0; j < p.D; j++ {
			if kexact.At(row, j).Sign() != 0 {
				c++
			}
		}
		return c
	}
	// Within each reversibility class of pivot rows, counts must be
	// non-decreasing.
	prevIrrev, prevRev := -1, -1
	for i := p.D; i < p.Q(); i++ {
		n := nonzeros(i)
		if p.Rev[i] {
			if n < prevRev {
				t.Fatalf("reversible pivot rows out of nonzero order at %d", i)
			}
			prevRev = n
		} else {
			if n < prevIrrev {
				t.Fatalf("irreversible pivot rows out of nonzero order at %d", i)
			}
			prevIrrev = n
		}
	}
}

func TestForceLast(t *testing.T) {
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j6, j8 := red.ColumnIndexByOriginal("r6r"), red.ColumnIndexByOriginal("r8r")
	p, err := New(red.N, red.Reversibilities(), Heuristics{ForceLast: []int{j8, j6}})
	if err != nil {
		t.Fatal(err)
	}
	if p.OrigCol(p.Perm[p.Q()-2]) != j8 || p.OrigCol(p.Perm[p.Q()-1]) != j6 {
		t.Fatalf("forced order not respected: last rows are %d,%d want %d,%d",
			p.Perm[p.Q()-2], p.Perm[p.Q()-1], j8, j6)
	}
	// Duplicated and out-of-range forced columns must fail.
	if _, err := New(red.N, red.Reversibilities(), Heuristics{ForceLast: []int{j6, j6}}); err == nil {
		t.Fatal("duplicate forced column accepted")
	}
	if _, err := New(red.N, red.Reversibilities(), Heuristics{ForceLast: []int{99}}); err == nil {
		t.Fatal("out-of-range forced column accepted")
	}
}

func TestAutoSplitOnReversibleCycle(t *testing.T) {
	// Three fully reversible reactions around a cycle are mutually
	// dependent; at least one cannot be a pivot and must be split.
	src := `
name revcycle
in : Aext <=> A
c1 : A <=> B
c2 : B <=> C
c3 : C <=> A
out : B => Bext
`
	n, err := model.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	red, err := reduce.Network(n, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(red.N, red.Reversibilities(), Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Split == nil {
		t.Fatal("expected automatic splitting")
	}
	if p.Q() <= p.OrigQ() {
		t.Fatalf("split did not widen the system: %d vs %d", p.Q(), p.OrigQ())
	}
	// Split bookkeeping: every split column maps to exactly one forward
	// and one backward problem column, every other column to one forward.
	fwd, bwd := make(map[int]int), make(map[int]int)
	for c, o := range p.Split.ColOf {
		if p.Split.Bwd[c] {
			bwd[o]++
		} else {
			fwd[o]++
		}
	}
	for _, sc := range p.Split.SplitCols {
		if fwd[sc] != 1 || bwd[sc] != 1 {
			t.Fatalf("split column %d has %d forward and %d backward copies", sc, fwd[sc], bwd[sc])
		}
		delete(bwd, sc)
	}
	if len(bwd) != 0 {
		t.Fatalf("unsplit columns carry backward copies: %v", bwd)
	}
	// Identity rows must still be irreversible after splitting.
	for i := 0; i < p.D; i++ {
		if p.Rev[i] {
			t.Fatalf("identity row %d reversible after split", i)
		}
	}
}

func TestSplitAllReversible(t *testing.T) {
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(red.N, red.Reversibilities(), Heuristics{SplitAllReversible: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Split == nil || len(p.Split.SplitCols) != 2 {
		t.Fatalf("expected 2 split reactions (r6r, r8r), got %+v", p.Split)
	}
	for _, r := range p.Rev {
		if r {
			t.Fatal("reversible reaction survived SplitAllReversible")
		}
	}
	if _, err := New(red.N, red.Reversibilities(), Heuristics{
		SplitAllReversible: true, ForceLast: []int{0},
	}); err == nil {
		t.Fatal("SplitAllReversible+ForceLast accepted")
	}
}

func TestErrorCases(t *testing.T) {
	// Rank-deficient stoichiometry.
	N := ratmat.FromInts([][]int64{{1, -1}, {2, -2}})
	if _, err := New(N, []bool{false, false}, Heuristics{}); err == nil {
		t.Fatal("rank-deficient matrix accepted")
	}
	// Wrong flag count.
	N2 := ratmat.FromInts([][]int64{{1, -1}})
	if _, err := New(N2, []bool{false}, Heuristics{}); err == nil {
		t.Fatal("wrong reversibility count accepted")
	}
	// Trivial kernel.
	N3 := ratmat.FromInts([][]int64{{1, 0}, {0, 1}})
	if _, err := New(N3, []bool{false, false}, Heuristics{}); err == nil {
		t.Fatal("trivial kernel accepted")
	}
}

func TestInvPerm(t *testing.T) {
	p, _ := toyProblem(t, Heuristics{})
	inv := p.InvPerm()
	for i, c := range p.Perm {
		if inv[c] != i {
			t.Fatal("InvPerm broken")
		}
	}
}

func TestYeastProblems(t *testing.T) {
	for _, name := range []string{"yeast1", "yeast2"} {
		red, err := reduce.Network(model.Builtin(name), reduce.Options{MergeDuplicates: true})
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(red.N, red.Reversibilities(), Heuristics{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Both yeast networks have exactly one reversible reduced column
		// that is linearly dependent on the other reversible columns and
		// must be split (a regression anchor, not a failure).
		if p.Split == nil || len(p.Split.SplitCols) != 1 {
			t.Errorf("%s: expected exactly one split reversible column, got %+v", name, p.Split)
		}
		if !p.NExact.Mul(exactKernel(t, p)).IsZero() {
			t.Errorf("%s: kernel not exact", name)
		}
		for i := 0; i < p.D; i++ {
			if p.Rev[i] {
				t.Errorf("%s: reversible identity row", name)
			}
		}
	}
}

// TestUnitRowsAndColMasks pins what the engine's rank test rests on:
// KernelRows is the exact kernel with each row scaled to unit max-magnitude,
// its rows 0..D-1 are exactly the unit vectors e_j (so N and [K₂ | −I]
// share a row space), and ColMask says where KernelRows is non-zero —
// under every way a Problem gets built.
func TestUnitRowsAndColMasks(t *testing.T) {
	toy, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := model.ParseString("name revcycle\nin : Aext <=> A\nc1 : A <=> B\nc2 : B <=> C\nc3 : C <=> A\nout : B => Bext\n")
	if err != nil {
		t.Fatal(err)
	}
	cycleRed, err := reduce.Network(cycle, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	yeast, err := reduce.Network(model.YeastI(), reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		red       *reduce.Reduced
		h         Heuristics
		wantSplit bool
	}{
		{"toy", toy, Heuristics{}, false},
		{"toy split-all", toy, Heuristics{SplitAllReversible: true}, true},
		{"toy force-last", toy, Heuristics{ForceLast: []int{toy.ColumnIndexByOriginal("r8r"), toy.ColumnIndexByOriginal("r6r")}}, false},
		{"offender split", cycleRed, Heuristics{}, true},
		{"yeast1", yeast, Heuristics{}, true},
	} {
		p, err := New(tc.red.N, tc.red.Reversibilities(), tc.h)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (p.Split != nil) != tc.wantSplit {
			t.Fatalf("%s: split = %v, want %v", tc.name, p.Split != nil, tc.wantSplit)
		}
		q, d := p.Q(), p.D
		kexact := exactKernel(t, p)
		if !p.NExact.Mul(kexact).IsZero() {
			t.Fatalf("%s: NExact·K != 0", tc.name)
		}
		qw := (q + 63) / 64
		if len(p.KernelRows) != q*d || len(p.ColMask) != d*qw {
			t.Fatalf("%s: %d kernel values and %d mask words for a %dx%d kernel", tc.name, len(p.KernelRows), len(p.ColMask), q, d)
		}
		for j := 0; j < d; j++ {
			if p.ColMask[j*qw+qw-1]>>uint((q-1)%64)>>1 != 0 {
				t.Fatalf("%s: mask of column %d has a bit at or above q", tc.name, j)
			}
		}
		for i := 0; i < q; i++ {
			exact := make([]float64, d)
			maxAbs := 0.0
			for j := range exact {
				exact[j], _ = kexact.At(i, j).Float64()
				maxAbs = math.Max(maxAbs, math.Abs(exact[j]))
			}
			for j := 0; j < d; j++ {
				v := p.KernelRows[i*d+j]
				if want := exact[j] * (1 / maxAbs); v != want {
					t.Fatalf("%s: KernelRows (%d,%d) = %v, the scaled exact entry is %v", tc.name, i, j, v, want)
				}
				if i < d && (v != 0) != (i == j) || i == j && v != 1 {
					t.Fatalf("%s: identity row %d is not e_%d: column %d holds %v", tc.name, i, i, j, v)
				}
				if bit := p.ColMask[j*qw+i/64]>>uint(i%64)&1 != 0; bit != (v != 0) {
					t.Fatalf("%s: mask bit (%d,%d) = %v over value %v", tc.name, i, j, bit, v)
				}
				if (v != 0) != (kexact.At(i, j).Sign() != 0) {
					t.Fatalf("%s: float kernel (%d,%d) = %v disagrees with the exact entry on being zero", tc.name, i, j, v)
				}
			}
		}
	}
}

// BenchmarkNullspaceNewYeast times the exact kernel construction on
// reduced Network I: the setup every run and every dnc class pays.
func BenchmarkNullspaceNewYeast(b *testing.B) {
	red, err := reduce.Network(model.YeastI(), reduce.Options{MergeDuplicates: true})
	if err != nil {
		b.Fatal(err)
	}
	rev := red.Reversibilities()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(red.N, rev, Heuristics{}); err != nil {
			b.Fatal(err)
		}
	}
}
