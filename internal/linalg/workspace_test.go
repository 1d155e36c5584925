package linalg

import (
	"math/rand"
	"testing"
)

// TestWorkspaceRankDeficiencyReuse: one workspace serving many
// interleaved eliminations of different shapes must return exactly what
// a fresh workspace returns for each — the permutation buffer and
// elimination state must not leak between calls.
func TestWorkspaceRankDeficiencyReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var shared Workspace
	for trial := 0; trial < 300; trial++ {
		rows := 1 + rng.Intn(9)
		cols := 1 + rng.Intn(9)
		maxDef := rng.Intn(cols + 1)
		m := make([]float64, rows*cols)
		for i := range m {
			m[i] = float64(rng.Intn(9) - 4)
		}
		mShared := append([]float64(nil), m...)
		mFresh := append([]float64(nil), m...)
		var fresh Workspace
		gotEx, gotDef := shared.RankDeficiencyExceeds(mShared, rows, cols, maxAbsOf(m), 0, maxDef)
		wantEx, wantDef := fresh.RankDeficiencyExceeds(mFresh, rows, cols, maxAbsOf(m), 0, maxDef)
		if gotEx != wantEx || gotDef != wantDef {
			t.Fatalf("trial %d (%dx%d maxDef=%d): shared workspace (%v,%d), fresh (%v,%d)",
				trial, rows, cols, maxDef, gotEx, gotDef, wantEx, wantDef)
		}
	}
}

// TestPermutationPivotingMatchesRank: the index-permutation elimination
// behind RankDeficiencyExceeds must agree with the row-swapping Rank on
// matrices engineered to need pivoting (leading zeros, repeated rows).
func TestPermutationPivotingMatchesRank(t *testing.T) {
	cases := [][][]float64{
		{{0, 1}, {1, 0}},
		{{0, 0, 1}, {0, 1, 0}, {1, 0, 0}},
		{{0, 2, 1}, {0, 2, 1}, {3, 0, 0}},
		{{0, 0}, {0, 0}, {1, 5}},
		{{1e-14, 1}, {1, 1}},
	}
	for i, rows := range cases {
		a, r, c := rowMajor(rows)
		ref := append([]float64(nil), a...)
		rank := Rank(ref, r, c, 0)
		var w Workspace
		exceeds, def := w.RankDeficiencyExceeds(a, r, c, maxAbsOf(a), 0, c)
		if exceeds || def != c-rank {
			t.Errorf("case %d: deficiency (%v,%d), want (false,%d)", i, exceeds, def, c-rank)
		}
	}
}
