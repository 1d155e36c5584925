package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"elmocomp/internal/linalg"
)

// pairPassRows are the rows the pair-pass tests replay, those of
// BenchmarkPairLoopYeast: a yeast1-dd-R19r row, one word of support, and
// a two-word Network I row (q = 65), whose tail crosses the word boundary.
func pairPassRows(t *testing.T) map[string]*RowIter {
	t.Helper()
	dd, ddSet := pairLoopDDRow(t)
	yeast, yeastSet := pairLoopYeastRow(t)
	if dd.Q() > 64 || yeast.Q() != 65 {
		t.Fatalf("q = %d and %d, want one word and 65", dd.Q(), yeast.Q())
	}
	return map[string]*RowIter{
		"yeast1-dd-R19r": BeginRow(dd, ddSet, ddSet.FirstRow(), Options{}),
		"yeast1":         BeginRow(yeast, yeastSet, yeastSet.FirstRow(), Options{}),
	}
}

// forEachPreTestSurvivor hands f, with its negative position, every pair
// of the row that passes the support pre-test, its positive column readied
// in the call (g.pi, g.posLive); with full set, the full value pass has
// combined the pair into the call's scratch first.
func forEachPreTestSurvivor(it *RowIter, full bool, f func(g *genCall, kn int)) {
	p := it.Problem
	var st IterStats
	g := newGenCall(it, it.NewCandidateSet(), linalg.NewWorkspace(p.M()+2, p.M()+2), &st, &GenScratch{})
	for _, pi := range it.Pos {
		g.column(pi)
		for kn, ni := range it.Neg {
			if it.unionFits(g.bp, pi, ni) {
				if full {
					g.valuePass(pi, ni)
				}
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
		forEachPreTestSurvivor(it, true, func(g *genCall, kn int) {
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
		forEachPreTestSurvivor(it, true, func(g *genCall, kn int) {
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

// supportFirstChecker holds the pair pass's support to the full value
// pass's, survivor by survivor: the words the rank test sees and the
// bounds' nil verdict must be bit-equal, and the candidates a row stores
// must be those the full pass would store, values included.
type supportFirstChecker struct {
	t                    *testing.T
	survivors, fallbacks int64
}

// pair checks one pre-test survivor of the row, g's positive column
// against negative position kn, through g's scratch and returns the full
// pass's support words.
func (c *supportFirstChecker) pair(label string, g *genCall, kn int) []uint64 {
	c.t.Helper()
	before := g.st.FullPasses
	pi, ni := g.pi, g.it.Neg[kn]
	cw := g.support(kn)
	got := slices.Clone(g.cand)
	g.valuePass(pi, ni)
	if !slices.Equal(got, g.cand) || (cw == nil) != !g.it.supportFits(g.cand) {
		c.t.Fatalf("%s: pair (%d, %d): support %x (nil %v), full pass %x (nil %v)", label, pi, ni, got, cw == nil, g.cand, !g.it.supportFits(g.cand))
	}
	c.survivors++
	c.fallbacks += g.st.FullPasses - before
	return g.cand
}

// row checks every pre-test survivor of the row, then generates the row
// and compares what it stored with the full pass's candidates, rank-tested
// in the same order.
func (c *supportFirstChecker) row(label string, it *RowIter) {
	c.t.Helper()
	p := it.Problem
	want := it.NewCandidateSet()
	forEachPreTestSurvivor(it, false, func(g *genCall, kn int) {
		cw := c.pair(label, g, kn)
		if it.supportFits(cw) {
			if ok, _ := nullityIsOne(p, g.ws, cw, g.liveRows(kn), zeroTol, g.sc.rankIdx, nil); ok {
				want.AppendMode(cw, g.newTail, g.newRev, zeroTol)
			}
		}
	})
	got := it.NewCandidateSet()
	var st IterStats
	it.GenerateIntoScratch(got, linalg.NewWorkspace(p.M()+2, p.M()+2), 0, it.Pairs(), &st, nil)
	if got.Len() != want.Len() || got.Fingerprint() != want.Fingerprint() {
		c.t.Fatalf("%s: %d candidates stored, fingerprint %016x; the full pass stores %d, %016x", label, got.Len(), got.Fingerprint(), want.Len(), want.Fingerprint())
	}
}

// TestSupportFirstMatchesFullPass: deciding a survivor's support from the
// rows its parents share, and computing its values only once it is
// accepted, stores what the full value pass stores and shows the rank test
// the same words — on every pre-test survivor of both pair-pass rows and
// of every row of a whole yeast1-dd-R19r run. Then sets built by hand
// force each fallback: a dirty column, a shared row whose value sits in
// the band, and a row one parent alone holds whose smallest value the
// clamp removes. Each must fall back and still match.
func TestSupportFirstMatchesFullPass(t *testing.T) {
	c := &supportFirstChecker{t: t}
	rows := pairPassRows(t)
	for name, it := range rows {
		c.survivors, c.fallbacks = 0, 0
		c.row(name, it)
		t.Logf("%s: %d survivors, %d full passes", name, c.survivors, c.fallbacks)
	}

	it := rows["yeast1-dd-R19r"]
	p, words := it.Problem, it.Set.words
	// A survivor with a row of evalMask both parents hold, another that
	// neither holds, and a third that the positive parent alone holds.
	var pi, kn, ni, shared, neither, alone int
	forEachPreTestSurvivor(it, false, func(g *genCall, k int) {
		if ni != 0 {
			return
		}
		bp, bn := it.Set.BitsWords(g.pi), it.Set.BitsWords(it.Neg[k])
		find := func(m func(w int) uint64) int {
			for w := range words {
				if v := m(w) & it.evalMask[w]; v != 0 {
					return w*64 + trailingZeros(v)
				}
			}
			return -1
		}
		s, n, a := find(func(w int) uint64 { return bp[w] & bn[w] }), find(func(w int) uint64 { return ^(bp[w] | bn[w]) }), find(func(w int) uint64 { return bp[w] &^ bn[w] })
		if s >= 0 && n >= 0 && a >= 0 {
			pi, kn, ni, shared, neither, alone = g.pi, k, it.Neg[k], s, n, a
		}
	})
	if ni == 0 {
		t.Fatal("yeast1-dd-R19r: no survivor with shared, unheld and positive-only rows")
	}
	stride := it.Set.stride()
	for _, tc := range []struct {
		name   string
		edit   func(set *ModeSet, alpha, beta float64)
		row    int
		wantOn bool
	}{
		// Non-zero where its bit is clear: the combination there is not 0.
		{"dirty column", func(set *ModeSet, alpha, beta float64) {
			set.vals[ni*stride+int(it.evalOff[neither])] = 0.5
		}, neither, true},
		// A positive-only value of 1000·(1+β/α) makes the largest value
		// 1000·(α+β); the shared row then combines to twice the clamp, in
		// the band: above the clamp, and normalised below the tolerance.
		{"shared value in the band", func(set *ModeSet, alpha, beta float64) {
			set.vals[pi*stride+int(it.evalOff[alone])] = 1000 * (1 + beta/alpha)
			o := int(it.evalOff[shared])
			target := 2 * zeroTol * (alpha + beta)
			set.vals[pi*stride+o] = (target - beta*set.vals[ni*stride+o]) / alpha
		}, shared, false},
		// A positive-only value the clamp removes.
		{"lone value under the clamp", func(set *ModeSet, alpha, beta float64) {
			set.vals[pi*stride+int(it.evalOff[alone])] = 1e-12
		}, alone, false},
	} {
		set := *it.Set
		set.bits, set.vals = slices.Clone(set.bits), slices.Clone(set.vals)
		beta, alpha := set.Tail(pi)[0], -set.Tail(ni)[0]
		tc.edit(&set, alpha, beta)
		hand := BeginRow(p, &set, it.Row, Options{})
		var st IterStats
		g := newGenCall(hand, hand.NewCandidateSet(), linalg.NewWorkspace(p.M()+2, p.M()+2), &st, &GenScratch{})
		g.column(pi)
		if g.sharedSupport(kn) {
			t.Fatalf("%s: the shared rows decided pair (%d, %d), want the full pass", tc.name, pi, ni)
		}
		full := c.pair(tc.name, &g, kn)
		if on := full[tc.row/64]>>uint(tc.row%64)&1 != 0; on != tc.wantOn || st.FullPasses != 1 {
			t.Fatalf("%s: the full pass sets row %d's bit %v, want %v; %d full passes, want 1", tc.name, tc.row, on, tc.wantOn, st.FullPasses)
		}
	}

	if testing.Short() {
		return
	}
	c.survivors, c.fallbacks = 0, 0
	dd := rows["yeast1-dd-R19r"].Problem
	pool := NewPool(dd, 1)
	set := InitialModeSet(dd, zeroTol)
	var stats IterStats
	for row := dd.D; row < dd.Q(); row++ {
		it := BeginRow(dd, set, row, Options{})
		c.row(fmt.Sprintf("yeast1-dd-R19r row %d", row), it)
		var err error
		if set, err = pool.AssembleNext(it, pool.GenerateRange(it, 0, it.Pairs(), &it.Stats)); err != nil {
			t.Fatal(err)
		}
		AddGenStats(&stats, &it.Stats)
	}
	if stats.Tested != 596450 || c.survivors < stats.Tested {
		t.Fatalf("whole run: %d survivors checked, %d rank tests, want 596,450", c.survivors, stats.Tested)
	}
	t.Logf("yeast1-dd-R19r, whole run: %d survivors, %d full passes (the run: %d)", c.survivors, c.fallbacks, stats.FullPasses)
}
