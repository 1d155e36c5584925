package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"elmocomp/internal/linalg"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/ratmat"
	"elmocomp/internal/synth"
)

// exactNullityIsOne is the definition the float test stands in for:
// |S| − rank(NExact[:,S]) == 1, in rational arithmetic.
func exactNullityIsOne(p *nullspace.Problem, support []uint64) bool {
	var cols []int
	for r := 0; r < p.Q(); r++ {
		if support[r/64]>>uint(r%64)&1 != 0 {
			cols = append(cols, r)
		}
	}
	return len(cols)-p.NExact.SelectColumns(cols).Rank() == 1
}

// rankTest is nullityIsOne on a support with the liveMask the engine
// hands it.
func rankTest(p *nullspace.Problem, ws *linalg.Workspace, support []uint64, tol float64, scratch []int, vt *verdictTable) (ok, eliminated bool) {
	union := make([]uint64, len(support))
	liveMask(p, union, support)
	return nullityIsOne(p, ws, support, union, tol, scratch, vt)
}

// rankTestChecker compares IsElementaryWS with the exact verdict, one
// support at a time, through every scratch a caller may hand it: none,
// one too short for the columns, one too short for the live rows, and
// the q-capacity one the engine and the benchmark pass.
type rankTestChecker struct {
	t         *testing.T
	p         *nullspace.Problem
	ws        *linalg.Workspace
	set       *ModeSet
	scratches [][]int
	accepted  int
	checked   int
}

func newRankTestChecker(t *testing.T, p *nullspace.Problem) *rankTestChecker {
	return &rankTestChecker{
		t: t, p: p,
		ws:        linalg.NewWorkspace(p.M()+2, p.M()+2),
		set:       NewModeSet(p.Q(), p.Q(), nil),
		scratches: [][]int{nil, make([]int, 0, 1), make([]int, 3, 3), make([]int, 0, p.Q())},
	}
}

func (c *rankTestChecker) check(label string, support []uint64) {
	c.t.Helper()
	want := exactNullityIsOne(c.p, support)
	c.set.Reset(c.p.Q(), c.p.Q(), nil)
	i := c.set.AppendMode(support, nil, nil, 0)
	for _, sc := range c.scratches {
		if got := IsElementaryWS(c.p, c.set, i, 0, c.ws, sc); got != want {
			c.t.Fatalf("%s: support %x with a scratch of capacity %d: IsElementaryWS = %v, exact nullity-one = %v", label, support, cap(sc), got, want)
		}
	}
	c.checked++
	if want {
		c.accepted++
	}
}

// checkMutations checks the support as it is and with each of the given
// rows flipped — added when absent, removed when present.
func (c *rankTestChecker) checkMutations(label string, support []uint64, rows []int) {
	c.t.Helper()
	c.check(label, support)
	mut := make([]uint64, len(support))
	for _, r := range rows {
		copy(mut, support)
		mut[r/64] ^= 1 << uint(r%64)
		c.check(fmt.Sprintf("%s, row %d flipped", label, r), mut)
	}
}

// TestRankTestMatchesExact: on real mode sets — toy and an efmgen network
// run to the end and stopped mid-run, and a mid-run Network I set — and on
// every support one bit away from them, the reduced float test reaches the
// verdict of the exact definition.
func TestRankTestMatchesExact(t *testing.T) {
	gen, err := synth.Network(synth.Params{Layers: 3, Width: 4, CrossLinks: 6, ReversibleFraction: 0.4, MaxCoef: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	toyP, _ := problemFor(t, model.Toy())
	genP, _ := problemFor(t, gen)
	yeastP := yeastProblem(t)
	rng := rand.New(rand.NewSource(28))
	for _, fx := range []struct {
		name     string
		p        *nullspace.Problem
		lastRows []int // Options.LastRow of each set; 0 is the complete run
		columns  int   // upper bound on the columns checked per set
		flips    int   // rows flipped per column; 0: every row
	}{
		{"toy", toyP, []int{0, 5, 6}, toyP.Q() * toyP.Q(), 0},
		{gen.Name, genP, []int{0, genP.Q() - 3}, 60, 0},
		{"yeast1", yeastP, []int{yeastP.D + 20}, 150, 6},
	} {
		c := newRankTestChecker(t, fx.p)
		q := fx.p.Q()
		for _, last := range fx.lastRows {
			res, err := Run(fx.p, Options{LastRow: last})
			if err != nil {
				t.Fatal(err)
			}
			set := res.Modes
			stride := max(1, set.Len()/fx.columns)
			for i := 0; i < set.Len(); i += stride {
				rows := rng.Perm(q)
				if fx.flips > 0 {
					rows = rows[:fx.flips]
				}
				c.checkMutations(fmt.Sprintf("%s stopped at row %d, column %d", fx.name, last, i), set.BitsWords(i), rows)
			}
		}
		if c.accepted == 0 || c.accepted == c.checked {
			t.Fatalf("%s: %d of %d supports are nullity one — the fixture exercises one verdict only", fx.name, c.accepted, c.checked)
		}
		t.Logf("%s: %d supports, %d of nullity one", fx.name, c.checked, c.accepted)
	}
}

// wideProblem is a hand-built problem of kernel dimension d over m
// constraints: few rows, many columns, nothing to enumerate. Every entry
// is a small integer and every column irreversible.
func wideProblem(t *testing.T, rng *rand.Rand, d, m int) *nullspace.Problem {
	t.Helper()
	q := d + m
	for {
		rows := make([][]int64, m)
		for i := range rows {
			rows[i] = make([]int64, q)
			for j := range rows[i] {
				if rng.Intn(3) == 0 {
					rows[i][j] = int64(rng.Intn(5) - 2)
				}
			}
		}
		N := ratmat.FromInts(rows)
		if N.Rank() != m {
			continue
		}
		p, err := nullspace.New(N, make([]bool, q), nullspace.Heuristics{})
		if err != nil {
			t.Fatal(err)
		}
		if p.D != d {
			t.Fatalf("wide problem: D = %d, want %d", p.D, d)
		}
		return p
	}
}

// TestRankTestWideKernels drives the multi-word identity block: D below,
// at and above one word and above two, where J and the row masks span
// words and the last word's unused bits must be masked off. Supports are
// random and small (nullity one needs |S| ≤ m+1) or near-complements, so
// T̄ is sometimes empty.
func TestRankTestWideKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, d := range []int{63, 64, 65, 130} {
		const m = 4
		p := wideProblem(t, rng, d, m)
		q := p.Q()
		c := newRankTestChecker(t, p)
		support := make([]uint64, (q+63)/64)
		for trial := 0; trial < 400; trial++ {
			clear(support)
			size := 1 + rng.Intn(m+2)
			for _, r := range rng.Perm(q)[:size] {
				support[r/64] |= 1 << uint(r%64)
			}
			if trial%4 == 0 { // the whole pivot block joins the support: T̄ is empty
				for r := d; r < q; r++ {
					support[r/64] |= 1 << uint(r%64)
				}
			}
			c.check(fmt.Sprintf("D=%d trial %d", d, trial), support)
		}
		if c.accepted < 20 || c.checked-c.accepted < 20 {
			t.Fatalf("D=%d: %d of %d supports are nullity one — too one-sided to mean anything", d, c.accepted, c.checked)
		}
	}
}

// handProblem is a problem built straight from the block below the
// identity: K = [I_D ; K₂] over N = [−K₂ | I_m], so N·K = 0 and every row
// of K₂ is a pivot row whose entries are exactly what its mask says.
func handProblem(d int, k2 [][]int64) *nullspace.Problem {
	m, q := len(k2), d+len(k2)
	qw := (q + 63) / 64
	n := make([][]int64, m)
	p := &nullspace.Problem{KernelRows: make([]float64, q*d), ColMask: make([]uint64, d*qw), Perm: make([]int, q), Rev: make([]bool, q), D: d}
	for i := range p.Perm {
		p.Perm[i] = i
	}
	set := func(r, j int, v float64) {
		p.KernelRows[r*d+j] = v
		p.ColMask[j*qw+r/64] |= 1 << uint(r%64)
	}
	for j := 0; j < d; j++ {
		set(j, j, 1)
	}
	for i, row := range k2 {
		n[i] = make([]int64, q)
		n[i][d+i] = 1
		for j, v := range row {
			n[i][j] = -v
			if v != 0 {
				set(d+i, j, float64(v))
			}
		}
	}
	p.NExact = ratmat.FromInts(n)
	return p
}

// peelProblem builds a hand kernel of identity dimension d whose block
// mixes what the peel strips — singleton rows, chains that only fall
// after an earlier pivot, column singletons — with a dense core it must
// leave to the elimination, one of its rows twice another. used lists
// the block's columns.
func peelProblem(rng *rand.Rand, d int) (p *nullspace.Problem, used []int) {
	// The block's columns: spread over the words, with a word's first and
	// last bit among them.
	used = rng.Perm(d)[:min(d, 9)]
	for _, j := range []int{63, 64} {
		if j < d && !slices.Contains(used, j) {
			used[rng.Intn(len(used))] = j
		}
	}
	val := func() int64 { return int64(1+rng.Intn(3)) * int64(1-2*rng.Intn(2)) }
	var k2 [][]int64
	row := func(cols ...int) []int64 {
		r := make([]int64, d)
		for _, c := range cols {
			r[used[c%len(used)]] = val() // D = 5 folds the pattern onto itself
		}
		k2 = append(k2, r)
		return r
	}
	row(0)    // a singleton,
	row(0, 1) // and a chain that falls after it
	row(1, 2)
	row(3, 4) // a column-singleton pair
	// A dense core over 5..8, one of its rows twice another.
	a := row(5, 6, 7)
	row(5, 6, 7, 8)
	row(6, 7, 8)
	b := row(5, 6, 7)
	for j := range b {
		b[j] = 2 * a[j]
	}
	for range 3 { // and rows anywhere in the block
		r := make([]int64, d)
		for range 1 + rng.Intn(4) {
			r[used[rng.Intn(len(used))]] = val()
		}
		k2 = append(k2, r)
	}
	return handProblem(d, k2), used
}

// TestRankTestPeelMatchesExact drives the structural peel on kernels
// built by hand, whose blocks mix what it strips — singleton rows, chains
// that only fall after an earlier pivot, column singletons, columns no
// row touches — with dense cores it must leave to the elimination, some
// of them rank deficient. Every verdict must be the exact one, and the
// supports must reach all four outcomes: accepted and rejected, each with
// and without an elimination.
func TestRankTestPeelMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, d := range []int{5, 63, 64, 65, 130} {
		p, used := peelProblem(rng, d)
		q := p.Q()
		c := newRankTestChecker(t, p)
		outcomes := map[[2]bool]int{} // by (ok, eliminated)
		support := make([]uint64, (q+63)/64)
		for trial := 0; trial < 600; trial++ {
			clear(support)
			for _, j := range rng.Perm(len(used))[:1+rng.Intn(len(used))] {
				support[used[j]/64] |= 1 << uint(used[j]%64)
			}
			if trial%3 == 0 { // a column no row touches
				j := rng.Intn(d)
				support[j/64] |= 1 << uint(j%64)
			}
			for r := d; r < q; r++ {
				if rng.Intn(3) == 0 {
					support[r/64] |= 1 << uint(r%64)
				}
			}
			c.check(fmt.Sprintf("D=%d trial %d", d, trial), support)
			ok, eliminated := rankTest(p, c.ws, support, linalg.DefaultTol, nil, nil)
			outcomes[[2]bool{ok, eliminated}]++
		}
		for _, o := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
			if outcomes[o] < 5 {
				t.Errorf("D=%d: %d supports with (ok, eliminated) = %v, want at least 5: %v", d, outcomes[o], o, outcomes)
			}
		}
		t.Logf("D=%d: (ok, eliminated) counts %v", d, outcomes)
	}
}

// TestRankTestEdgeCases: the verdicts the reduced test reaches with and
// without an elimination, on the toy problem (D = 4 over q = 8), whose
// block below the identity rows is
//
//	row 4: [ 1    0   1   0]
//	row 5: [ 0   .5   0  -1]
//	row 6: [-.5  .5   0  -1]
//	row 7: [ 1   -1   1   1]
//
// and on a hand-built block where two columns can be free while the
// live-row count still passes.
func TestRankTestEdgeCases(t *testing.T) {
	p, _ := problemFor(t, model.Toy())
	if p.D != 4 || p.Q() != 8 || p.ColMask[0] != 0b1101_0001 || p.ColMask[1] != 0b1110_0010 || p.ColMask[2] != 0b1001_0100 || p.ColMask[3] != 0b1110_1000 {
		t.Fatalf("toy kernel changed shape: D=%d q=%d masks %b", p.D, p.Q(), p.ColMask)
	}
	// D = 4, rows 4..8.
	hand := handProblem(4, [][]int64{
		{1, 0, 0, 0},
		{1, 2, 0, 0},
		{0, 1, 3, 0},
		{0, 0, 0, 1},
		{0, 1, 1, 1},
	})
	ws := linalg.NewWorkspace(1, 1) // grows on demand
	for _, tc := range []struct {
		name           string
		p              *nullspace.Problem
		support        uint64
		ok, eliminated bool
	}{
		{"empty support", p, 0, false, false},
		{"|J| = 0: pivot rows only", p, 0xF0, false, false},
		{"|J| = 1, no live row: column 2 vanishes on T̄ = {5,6}", p, 0b1001_0100, true, false},
		{"|J| = 1, T̄ empty", p, 0b1111_0100, true, false},
		{"|J| = 2, T̄ empty: nothing constrains two free columns", p, 0b1111_0011, false, false},
		{"|J| = 4 over two live rows: the count rejects", p, 0b1001_1111, false, false},
		// Row 4 is a singleton on column 2 once J = {2}: the peel pivots
		// it and nothing is left, with no deficiency.
		{"|J| = 1 pinned to zero by its live rows", p, 0b0000_0100, false, false},
		// Row 4 alone holds columns 0 and 2: one pivots it, the other is
		// then free — one deficiency, no elimination.
		{"|J| = 2 tied by row 4", p, 0b1110_0101, true, false},
		{"|J| = 2 over a dense core of full rank", p, 0b0000_1010, false, true},
		{"|J| = 2 over a dense core of rank 1", p, 0b1001_1010, true, true},
		{"two free columns beside two live rows on one", hand, 0b1_1100_1101, false, false},
		{"a chain of row singletons peeled to nothing beside one free column", hand, 0b1_1000_1111, true, false},
		{"no row singleton: a column singleton starts the peel", hand, 0b0_1011_1110, true, false},
	} {
		words := []uint64{tc.support}
		ok, eliminated := rankTest(tc.p, ws, words, linalg.DefaultTol, nil, nil)
		if want := exactNullityIsOne(tc.p, words); ok != want || ok != tc.ok || eliminated != tc.eliminated {
			t.Errorf("%s (support %#b): (ok, eliminated) = (%v, %v), want (%v, %v); exact verdict %v", tc.name, tc.support, ok, eliminated, tc.ok, tc.eliminated, want)
		}
	}
}

// TestRankTestVerdictTable replays rank-test streams through one verdict
// table and through none, and every verdict and every elimination flag
// must agree: the stream of a yeast1-dd-R19r row, the two-word Network I
// row of BenchmarkRankTestYeast, and supports over the hand kernels, each
// met twice and beside a column no row touches, so the same block recurs
// with both allowances. The table must answer some of each stream, and
// on the whole yeast1-dd-R19r run at one worker it must answer at least
// seven in ten of the 190,612 eliminations.
func TestRankTestVerdictTable(t *testing.T) {
	var vt verdictTable // one table throughout: it must clear itself between problems
	replay := func(label string, p *nullspace.Problem, supports [][]uint64) {
		t.Helper()
		ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
		scratch := make([]int, 0, p.Q())
		hits, eliminated := vt.hits, 0
		for i, s := range supports {
			ok, e := rankTest(p, ws, s, zeroTol, scratch, &vt)
			wantOK, wantE := rankTest(p, ws, s, zeroTol, scratch, nil)
			if ok != wantOK || e != wantE {
				t.Fatalf("%s: support %d (%x): (ok, eliminated) = (%v, %v) with the table, (%v, %v) without", label, i, s, ok, e, wantOK, wantE)
			}
			if e {
				eliminated++
			}
		}
		if vt.hits == hits || vt.hits-hits == int64(eliminated) {
			t.Fatalf("%s: the table answered %d of %d eliminations, want some but not all", label, vt.hits-hits, eliminated)
		}
		t.Logf("%s: %d supports, the table answered %d of %d eliminations", label, len(supports), vt.hits-hits, eliminated)
	}
	rowStream := func(p *nullspace.Problem, set *ModeSet) [][]uint64 {
		stream, _ := rankTestStream(BeginRow(p, set, set.FirstRow(), Options{}))
		var supports [][]uint64
		for i := 0; i < stream.Len(); i++ {
			supports = append(supports, stream.BitsWords(i))
		}
		return supports
	}

	dd := yeastDDProblem(t)
	res, err := Run(dd, Options{LastRow: dd.D + 20})
	if err != nil {
		t.Fatal(err)
	}
	replay("yeast1-dd-R19r", dd, rowStream(dd, res.Modes))
	yeast, yeastSet := pairLoopYeastRow(t)
	if yeast.Q() <= 64 {
		t.Fatalf("Network I has q = %d, want a second word", yeast.Q())
	}
	replay("yeast1", yeast, rowStream(yeast, yeastSet))
	rng := rand.New(rand.NewSource(39))
	for _, d := range []int{5, 63, 64, 65, 130} {
		p, used := peelProblem(rng, d)
		q := p.Q()
		free := -1 // a column no row touches: any outside the block's (none at D = 5)
		for j := range d {
			if !slices.Contains(used, j) {
				free = j
				break
			}
		}
		var supports [][]uint64
		for range 300 {
			s := make([]uint64, (q+63)/64)
			for _, j := range rng.Perm(len(used))[:1+rng.Intn(len(used))] {
				s[used[j]/64] |= 1 << uint(used[j]%64)
			}
			for r := d; r < q; r++ {
				if rng.Intn(3) == 0 {
					s[r/64] |= 1 << uint(r%64)
				}
			}
			supports = append(supports, s)
			if free >= 0 {
				wide := slices.Clone(s)
				wide[free/64] |= 1 << uint(free%64)
				supports = append(supports, wide)
			}
		}
		supports = append(supports, supports...)
		rng.Shuffle(len(supports), func(i, j int) { supports[i], supports[j] = supports[j], supports[i] })
		replay(fmt.Sprintf("hand kernel D=%d", d), p, supports)
	}

	if testing.Short() {
		return
	}
	pool := NewPool(dd, 1)
	set := InitialModeSet(dd, zeroTol)
	var eliminated int64
	for row := dd.D; row < dd.Q(); row++ {
		it := BeginRow(dd, set, row, Options{})
		if set, err = pool.AssembleNext(it, pool.GenerateRange(it, 0, it.Pairs(), &it.Stats)); err != nil {
			t.Fatal(err)
		}
		eliminated += it.Stats.Eliminated
	}
	table := &pool.workers[0].sc.verdicts
	if eliminated != 190612 || table.hits+table.misses != eliminated || table.hits*10 < eliminated*7 {
		t.Fatalf("yeast1-dd-R19r at one worker: %d eliminations, the table answered %d and missed %d; want 190,612, every one asked, at least 70%% answered", eliminated, table.hits, table.misses)
	}
	t.Logf("yeast1-dd-R19r at one worker: the table answered %d of %d eliminations (%.1f%%)", table.hits, eliminated, 100*float64(table.hits)/float64(eliminated))
}

// peelPerBit is the peel as it stripped row singletons before they went a
// word at a time: one bit at a time, each pivoting the first kept column
// that holds it. TestPeelMatchesPerBit holds peel to it.
func peelPerBit(cols []int, rc, live, twos []uint64) (nc, free int) {
	qw, n := len(live), len(cols)
	for {
		for k := range live {
			for s := live[k] &^ twos[k]; s != 0; s &= s - 1 {
				b := s & -s
				for i := 0; i < n; i++ {
					if cols[i] >= 0 && rc[i*qw+k]&b != 0 {
						cols[i] = -1
						break
					}
				}
				live[k] &^= b
			}
		}
		m := 0
		for i := 0; i < n; i++ {
			if cols[i] < 0 {
				continue
			}
			x := rc[i*qw : i*qw+qw]
			cnt := 0
			for k, v := range x {
				cnt += popcount(v & live[k])
			}
			switch cnt {
			case 0:
				if free++; free > 1 {
					return m, free
				}
			case 1:
				for k, v := range x {
					live[k] &^= v
				}
			default:
				y := rc[m*qw : m*qw+qw]
				for k, v := range x {
					y[k] = v & live[k]
				}
				cols[m] = cols[i]
				m++
			}
		}
		n = m
		again := false
		for k := range live {
			l := live[k]
			var one, two, lost uint64
			for i := k; i < n*qw; i += qw {
				v := rc[i]
				lost |= v &^ l
				v &= l
				rc[i] = v
				two |= one & v
				one |= v
			}
			live[k], twos[k] = one, two
			again = again || lost != 0 || one&^two != 0
		}
		if !again {
			return n, free
		}
	}
}

// peelInput is the block nullityIsOne hands the peel for a support: J's
// columns, each one's rows of T̄, the rows in ≥ 1 of them and in ≥ 2.
func peelInput(p *nullspace.Problem, support []uint64) (cols []int, rc, live, twos []uint64) {
	qw := len(support)
	for c := 0; c < p.D; c++ {
		if support[c/64]>>uint(c%64)&1 != 0 {
			cols = append(cols, c)
		}
	}
	rc = make([]uint64, len(cols)*qw)
	live, twos = make([]uint64, qw), make([]uint64, qw)
	for k := range live {
		for i, c := range cols {
			v := p.ColMask[c*qw+k] &^ support[k]
			rc[i*qw+k] = v
			twos[k] |= live[k] & v
			live[k] |= v
		}
	}
	return cols, rc, live, twos
}

// TestPeelMatchesPerBit: the word-parallel peel leaves what the per-bit
// one leaves — the same columns kept, in order, the same free count, the
// same live rows and kept columns' rows — on random supports over the
// hand kernels at one and two words of rows, and on every rank-test input
// of the pair-pass rows.
func TestPeelMatchesPerBit(t *testing.T) {
	check := func(label string, p *nullspace.Problem, support []uint64) {
		t.Helper()
		cols, rc, live, twos := peelInput(p, support)
		wc, wrc, wlive, wtwos := slices.Clone(cols), slices.Clone(rc), slices.Clone(live), slices.Clone(twos)
		nc, free := peel(cols, rc, live, twos)
		wnc, wfree := peelPerBit(wc, wrc, wlive, wtwos)
		qw := len(live)
		if nc != wnc || free != wfree || !slices.Equal(cols[:nc], wc[:wnc]) || !slices.Equal(live, wlive) || !slices.Equal(rc[:nc*qw], wrc[:wnc*qw]) {
			t.Fatalf("%s: support %x: peel (nc %d, free %d, cols %v, live %x), per bit (%d, %d, %v, %x)",
				label, support, nc, free, cols[:nc], live, wnc, wfree, wc[:wnc], wlive)
		}
	}
	rng := rand.New(rand.NewSource(53))
	for _, d := range []int{5, 40, 63, 64} {
		p, used := peelProblem(rng, d)
		q := p.Q()
		for trial := 0; trial < 2000; trial++ {
			support := make([]uint64, (q+63)/64)
			for _, j := range rng.Perm(len(used))[:1+rng.Intn(len(used))] {
				support[used[j]/64] |= 1 << uint(used[j]%64)
			}
			for r := d; r < q; r++ {
				if rng.Intn(3) == 0 {
					support[r/64] |= 1 << uint(r%64)
				}
			}
			check(fmt.Sprintf("hand kernel D=%d (%d words) trial %d", d, len(support), trial), p, support)
		}
	}
	for name, it := range pairPassRows(t) {
		stream, _ := rankTestStream(it)
		for i := 0; i < stream.Len(); i++ {
			check(fmt.Sprintf("%s: rank-test input %d", name, i), it.Problem, stream.BitsWords(i))
		}
		t.Logf("%s: %d rank-test inputs", name, stream.Len())
	}
}
