package core

import (
	"math/rand"
	"slices"
	"testing"

	"elmocomp/internal/linalg"
)

// pairPassRows are the rows the pair-pass tests replay: a yeast1-dd-R19r
// row, one word of support, and the two-word Network I row of
// BenchmarkPairLoopYeast (q = 65), whose tail crosses the word boundary.
func pairPassRows(t *testing.T) map[string]*RowIter {
	t.Helper()
	dd := yeastDDProblem(t)
	res, err := Run(dd, Options{LastRow: dd.D + 20})
	if err != nil {
		t.Fatal(err)
	}
	yeast, yeastSet := pairLoopYeastRow(t)
	if dd.Q() > 64 || yeast.Q() != 65 {
		t.Fatalf("q = %d and %d, want one word and 65", dd.Q(), yeast.Q())
	}
	return map[string]*RowIter{
		"yeast1-dd-R19r": BeginRow(dd, res.Modes, res.Modes.FirstRow(), Options{}),
		"yeast1":         BeginRow(yeast, yeastSet, yeastSet.FirstRow(), Options{}),
	}
}

// forEachPreTestSurvivor combines every pair of the row that passes the
// support pre-test into the call's scratch, and hands it to f with its
// negative position.
func forEachPreTestSurvivor(it *RowIter, f func(g *genCall, kn int)) {
	p := it.Problem
	var st IterStats
	g := newGenCall(it, it.NewCandidateSet(), linalg.NewWorkspace(p.M()+2, p.M()+2), &st, &GenScratch{})
	for _, pi := range it.Pos {
		g.column(pi)
		for kn, ni := range it.Neg {
			if it.unionFits(g.bp, pi, ni) {
				g.candidate(pi, ni)
				f(&g, kn)
			}
		}
	}
}

// TestLiveRowCountMatchesGather: for every pre-test survivor, the
// live-row count the rank test takes in O(words) from its parents'
// liveMasks, popcount((L_a | L_b) &^ S), equals the count gathered column
// by column over its own J: identity rows never cancel, so J = J_a ∪ J_b.
func TestLiveRowCountMatchesGather(t *testing.T) {
	for name, it := range pairPassRows(t) {
		p := it.Problem
		qw := (p.Q() + 63) / 64
		checked, fromNeg := 0, 0
		forEachPreTestSurvivor(it, func(g *genCall, kn int) {
			s := g.cand
			gathered := make([]uint64, qw)
			for c := 0; c < p.D; c++ {
				if s[c/64]>>uint(c%64)&1 != 0 {
					for k := range gathered {
						gathered[k] |= p.ColMask[c*qw+k] &^ s[k]
					}
				}
			}
			union := g.liveRows(kn)
			want, got, pos := 0, 0, 0
			for k := range gathered {
				want += popcount(gathered[k])
				got += popcount(union[k] &^ s[k])
				pos += popcount(g.posLive[k] &^ s[k])
			}
			if got != want {
				t.Fatalf("%s: pair (%d, %d), support %x: live rows %d from the parents' masks, %d gathered", name, g.pi, it.Neg[kn], s, got, want)
			}
			if pos < want {
				fromNeg++
			}
			checked++
		})
		if checked == 0 || fromNeg == 0 {
			t.Fatalf("%s: %d pre-test survivors, %d with live rows only the negative parent reaches", name, checked, fromNeg)
		}
		t.Logf("%s: %d pre-test survivors, %d with live rows only the negative parent reaches", name, checked, fromNeg)
	}
}

// perEntrySupport is the support a mode of set's layout gets from its
// values, one bit at a time: prefix's bits, then each tail and reversible
// row's abs(v) > tol.
func perEntrySupport(set *ModeSet, prefix []uint64, tail, rev []float64, tol float64) []uint64 {
	w := make([]uint64, set.words)
	copy(w, prefix)
	put := func(r int, on bool) {
		w[r/64] &^= 1 << uint(r%64)
		if on {
			w[r/64] |= 1 << uint(r%64)
		}
	}
	for j, v := range tail {
		put(set.FirstRow()+j, abs(v) > tol)
	}
	for j, v := range rev {
		put(set.RevRows()[j], abs(v) > tol)
	}
	return w
}

// TestSupportBitsMatchPerEntry: the support words the pair pass builds in
// scratch, a word at a time, are the bits the per-entry derivation gives
// the same values, on every pre-test survivor of a one-word and a
// two-word row; and AppendMode, which builds its bits the same way, on
// layouts whose tail starts and ends on either side of a word boundary.
func TestSupportBitsMatchPerEntry(t *testing.T) {
	for name, it := range pairPassRows(t) {
		cands := it.NewCandidateSet()
		n := 0
		forEachPreTestSurvivor(it, func(g *genCall, kn int) {
			prefix := slices.Clone(it.Set.BitsWords(g.pi))
			for k, v := range it.Set.BitsWords(it.Neg[kn]) {
				prefix[k] |= v
			}
			prefix[it.Row/64] &^= 1 << uint(it.Row%64)
			if want := perEntrySupport(cands, prefix, g.newTail, g.newRev, zeroTol); !slices.Equal(g.cand, want) {
				t.Fatalf("%s: pair (%d, %d): scratch support %x, per entry %x", name, g.pi, it.Neg[kn], g.cand, want)
			}
			n++
		})
		t.Logf("%s: %d scratch supports", name, n)
	}

	rng := rand.New(rand.NewSource(42))
	value := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return (rng.Float64() - 0.5) * 2e-9 // at the tolerance
		default:
			return rng.Float64() - 0.5
		}
	}
	for _, q := range []int{56, 64, 65, 130} {
		for _, first := range []int{0, 1, 55, 56, 63, 64, 65, 127, 128, q} {
			if first > q {
				continue
			}
			var rev []int
			for r := 0; r < first; r++ {
				if rng.Intn(4) == 0 {
					rev = append(rev, r)
				}
			}
			set := NewModeSet(q, first, rev)
			for trial := 0; trial < 20; trial++ {
				prefix := make([]uint64, set.words)
				for k := range prefix {
					prefix[k] = rng.Uint64()
				}
				if trial == 0 {
					prefix = nil
				}
				tail := make([]float64, q-first)
				for j := range tail {
					tail[j] = value()
				}
				rv := make([]float64, len(rev))
				for j := range rv {
					rv[j] = value()
				}
				i := set.AppendMode(prefix, tail, rv, zeroTol)
				if want := perEntrySupport(set, prefix, tail, rv, zeroTol); !slices.Equal(set.BitsWords(i), want) {
					t.Fatalf("q=%d first row %d trial %d: AppendMode bits %x, per entry %x", q, first, trial, set.BitsWords(i), want)
				}
			}
		}
	}
}
