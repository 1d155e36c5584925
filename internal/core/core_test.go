package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"elmocomp/internal/bitset"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/ratmat"
	"elmocomp/internal/reduce"
)

// problemFor builds a ready-to-run Problem from a built-in or parsed
// network.
func problemFor(t *testing.T, n *model.Network) (*nullspace.Problem, *reduce.Reduced) {
	t.Helper()
	red, err := reduce.Network(n, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	return p, red
}

// supportKey renders a support over reduced reaction names, sorted, for
// order-independent comparison (split columns fold onto their original).
func supportKey(p *nullspace.Problem, red *reduce.Reduced, set *ModeSet, i int) string {
	nameSet := make(map[string]bool)
	for _, permIdx := range set.SupportIndices(i, nil) {
		nameSet[red.Cols[p.OrigCol(p.Perm[permIdx])].Name] = true
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func allSupportKeys(p *nullspace.Problem, red *reduce.Reduced, set *ModeSet) []string {
	keys := make([]string, set.Len())
	for i := range keys {
		keys[i] = supportKey(p, red, set, i)
	}
	sort.Strings(keys)
	return keys
}

func TestToyNetworkEFMs(t *testing.T) {
	p, red := problemFor(t, model.Toy())
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modes.Len() != 8 {
		t.Fatalf("toy network: %d EFMs, want 8", res.Modes.Len())
	}
	if err := VerifyModes(p, res.Modes); err != nil {
		t.Fatal(err)
	}
	// The eight pathways of Figure 1 (r9 is merged into r3's column by
	// the reducer, so supports are over reduced names).
	want := []string{
		"r1,r2,r3*r9,r4",     // A -> C -> D+P
		"r1,r4,r5,r7",        // A -> B -> 2P
		"r1,r3*r9,r4,r5,r6r", // A -> B -> C -> D+P
		"r1,r2,r6r,r8r",      // A -> C -> B -> Bext
		"r4,r7,r8r",          // Bext -> B -> 2P
		"r3*r9,r4,r6r,r8r",   // Bext -> B -> C -> D+P
		"r1,r5,r8r",          // A -> B -> Bext
		"r1,r2,r4,r6r,r7",    // A -> C -> B -> 2P
	}
	sort.Strings(want)
	got := allSupportKeys(p, red, res.Modes)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("EFM supports mismatch:\n got %v\nwant %v", got, want)
		}
	}
}

func TestToyEFMsExactFluxes(t *testing.T) {
	p, red := problemFor(t, model.Toy())
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := model.Toy()
	N, _ := n.Stoichiometry()
	for i := 0; i < res.Modes.Len(); i++ {
		flux, err := ReconstructFlux(p, res.Modes, i)
		if err != nil {
			t.Fatal(err)
		}
		orig := red.Expand(flux)
		// Exact balance over the ORIGINAL network.
		for r, b := range N.MulVec(orig) {
			if b.Sign() != 0 {
				t.Fatalf("mode %d: original row %d imbalance %v", i, r, b)
			}
		}
		// Original sign constraints.
		for ri, rxn := range n.Reactions {
			if !rxn.Reversible && orig[ri].Sign() < 0 {
				t.Fatalf("mode %d: irreversible %s carries %v", i, rxn.Name, orig[ri])
			}
		}
		// r9 must always equal r3 (coupled by reduction).
		i3, i9 := n.ReactionIndex("r3"), n.ReactionIndex("r9")
		if orig[i3].Cmp(orig[i9]) != 0 {
			t.Fatalf("mode %d: r3=%v != r9=%v", i, orig[i3], orig[i9])
		}
	}
}

func TestHeuristicsDoNotChangeResult(t *testing.T) {
	n := model.Toy()
	red, err := reduce.Network(n, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	variants := []nullspace.Heuristics{
		{},
		{DisableNonzeroOrder: true},
		{DisableReversibleLast: true},
		{DisableNonzeroOrder: true, DisableReversibleLast: true},
	}
	var ref []string
	for vi, h := range variants {
		p, err := nullspace.New(red.N, red.Reversibilities(), h)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyModes(p, res.Modes); err != nil {
			t.Fatalf("variant %d: %v", vi, err)
		}
		keys := allSupportKeys(p, red, res.Modes)
		if vi == 0 {
			ref = keys
			continue
		}
		if strings.Join(keys, ";") != strings.Join(ref, ";") {
			t.Fatalf("variant %d changed the EFM set", vi)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	p, _ := problemFor(t, model.Toy())
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != p.Q()-p.D {
		t.Fatalf("stats for %d iterations, want %d", len(res.Stats), p.Q()-p.D)
	}
	var pairs int64
	for _, s := range res.Stats {
		if s.Pairs != int64(s.Pos)*int64(s.Neg) {
			t.Fatalf("row %d: pairs %d != pos*neg %d*%d", s.Row, s.Pairs, s.Pos, s.Neg)
		}
		if s.Accepted+s.Prefiltered > s.Pairs {
			t.Fatalf("row %d: accounting broken: %+v", s.Row, s)
		}
		pairs += s.Pairs
	}
	if res.TotalPairs() != pairs {
		t.Fatalf("TotalPairs %d != %d", res.TotalPairs(), pairs)
	}
	if res.PeakBytes() <= 0 {
		t.Fatal("PeakBytes not recorded")
	}
}

func TestMaxModesGuard(t *testing.T) {
	p, _ := problemFor(t, model.Toy())
	if _, err := Run(p, Options{MaxModes: 2}); err == nil {
		t.Fatal("expected mode-budget error")
	}
}

func TestTraceHook(t *testing.T) {
	p, _ := problemFor(t, model.Toy())
	calls := 0
	_, err := Run(p, Options{Trace: func(it IterStats, set *ModeSet) {
		calls++
		if set.Len() != it.ModesOut {
			t.Fatalf("trace: set len %d != ModesOut %d", set.Len(), it.ModesOut)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != p.Q()-p.D {
		t.Fatalf("trace called %d times, want %d", calls, p.Q()-p.D)
	}
}

// bruteForceEFMs enumerates elementary flux mode supports of (N, rev) by
// exhaustive subset search in exact arithmetic: S is an EFM support iff
// the submatrix N[:,S] has nullity exactly 1, its kernel vector is
// non-zero throughout S, and one orientation satisfies the sign
// constraints. Exponential — test oracle for q ≤ ~14.
func bruteForceEFMs(N *ratmat.Matrix, rev []bool) map[string]bool {
	q := N.Cols()
	out := make(map[string]bool)
	for mask := 1; mask < 1<<uint(q); mask++ {
		var cols []int
		for j := 0; j < q; j++ {
			if mask&(1<<uint(j)) != 0 {
				cols = append(cols, j)
			}
		}
		sub := N.SelectColumns(cols)
		k, _ := sub.Kernel()
		if k.Cols() != 1 {
			continue
		}
		full := true
		for j := range cols {
			if k.At(j, 0).Sign() == 0 {
				full = false
				break
			}
		}
		if !full {
			continue
		}
		posOK, negOK := true, true
		for j, cj := range cols {
			if rev[cj] {
				continue
			}
			if k.At(j, 0).Sign() < 0 {
				posOK = false
			} else {
				negOK = false
			}
		}
		if !posOK && !negOK {
			continue
		}
		b := bitset.New(q)
		for _, c := range cols {
			b.Set(c)
		}
		out[b.String()] = true
	}
	return out
}

// pointedFormulation is the binary-approach preparation: every reversible
// reaction split, so the cone is pointed and the engine's bit-pattern-tree
// prefilter runs ahead of the rank test.
var pointedFormulation = nullspace.Heuristics{SplitAllReversible: true}

// algorithmSupports runs the Nullspace Algorithm directly on (N, rev)
// prepared with h and returns the canonical support set in
// reduced-column index space.
func algorithmSupports(t *testing.T, N *ratmat.Matrix, rev []bool, h nullspace.Heuristics) map[string]bool {
	t.Helper()
	p, err := nullspace.New(N, rev, h)
	if err != nil {
		t.Fatalf("nullspace: %v", err)
	}
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyModes(p, res.Modes); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	for _, b := range CanonicalSupports(res) {
		out[b.String()] = true
	}
	return out
}

func diffSets(a, b map[string]bool) string {
	var onlyA, onlyB []string
	for k := range a {
		if !b[k] {
			onlyA = append(onlyA, k)
		}
	}
	for k := range b {
		if !a[k] {
			onlyB = append(onlyB, k)
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return fmt.Sprintf("only in algorithm: %v; only in brute force: %v", onlyA, onlyB)
}

func TestAgainstBruteForceToy(t *testing.T) {
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceEFMs(red.N, red.Reversibilities())
	for _, h := range []nullspace.Heuristics{{}, pointedFormulation} {
		got := algorithmSupports(t, red.N, red.Reversibilities(), h)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d EFMs, brute force %d: %s", h, len(got), len(want), diffSets(got, want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("%+v: missing EFM %s", h, k)
			}
		}
	}
}

// TestAgainstBruteForceRandom cross-checks the algorithm against the
// exhaustive oracle on random small stoichiometries with mixed
// reversibility.
func TestAgainstBruteForceRandom(t *testing.T) {
	checked := 0
	for seed := int64(0); checked < 25 && seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)     // 2..4 constraints
		q := m + 2 + rng.Intn(4) // up to m+5 reactions
		rows := make([][]int64, m)
		for i := range rows {
			rows[i] = make([]int64, q)
			for j := range rows[i] {
				if rng.Intn(3) != 0 {
					rows[i][j] = int64(rng.Intn(5) - 2)
				}
			}
		}
		N := ratmat.FromInts(rows)
		// Full row rank required.
		keep := N.IndependentRows()
		if len(keep) == 0 {
			continue
		}
		N = N.SelectRows(keep)
		rev := make([]bool, q)
		for j := range rev {
			rev[j] = rng.Intn(4) == 0
		}
		want := bruteForceEFMs(N, rev)
		got := algorithmSupports(t, N, rev, nullspace.Heuristics{})
		if len(got) != len(want) {
			t.Fatalf("seed %d (%dx%d): algorithm %d vs brute force %d EFMs: %s\nN:\n%v rev: %v",
				seed, N.Rows(), q, len(got), len(want), diffSets(got, want), N, rev)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("seed %d: missing EFM %s", seed, k)
			}
		}
		gotP := algorithmSupports(t, N, rev, pointedFormulation)
		if len(gotP) != len(want) {
			t.Fatalf("seed %d: pointed formulation %d vs %d EFMs: %s", seed, len(gotP), len(want), diffSets(gotP, want))
		}
		checked++
	}
	if checked < 25 {
		t.Fatalf("only %d random instances were checkable", checked)
	}
}

// testNetworks are small curated networks exercising reversibility
// corners (reversible exchanges, internal reversible cycles, branches).
var testNetworks = []string{
	`
name linear
in : Aext => A
mid : A <=> B
out : B => Bext
`, `
name branch
in : Aext => A
b1 : A => B
b2 : A => C
o1 : B => Bext
o2 : C => Cext
x : B <=> C
`, `
name revcycle
in : Aext <=> A
c1 : A <=> B
c2 : B <=> C
c3 : C <=> A
out : B => Bext
`, `
name diamond
in : Aext => A
u1 : A => B
u2 : A <=> C
j1 : B => D
j2 : C => D
out : D => Dext
alt : C <=> Dext
`,
}

func TestCuratedNetworksAgainstBruteForce(t *testing.T) {
	for _, src := range testNetworks {
		n, err := model.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		red, err := reduce.Network(n, reduce.Options{})
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		want := bruteForceEFMs(red.N, red.Reversibilities())
		for _, h := range []nullspace.Heuristics{{}, pointedFormulation} {
			got := algorithmSupports(t, red.N, red.Reversibilities(), h)
			if len(got) != len(want) {
				t.Fatalf("%s %+v: algorithm %d vs brute force %d: %s", n.Name, h, len(got), len(want), diffSets(got, want))
			}
		}
	}
}

func TestInitialModeSetStructure(t *testing.T) {
	p, _ := problemFor(t, model.Toy())
	set := InitialModeSet(p, 1e-9)
	if set.Len() != p.D {
		t.Fatalf("initial set has %d modes, want D=%d", set.Len(), p.D)
	}
	for j := 0; j < p.D; j++ {
		// Identity structure: mode j supports exactly row j among the
		// first D rows.
		for i := 0; i < p.D; i++ {
			if set.Test(j, i) != (i == j) {
				t.Fatalf("identity block broken at mode %d row %d", j, i)
			}
		}
	}
}

func TestReconstructFluxMatchesScaledValues(t *testing.T) {
	// Exact reconstruction of the paper's first toy EFM: supports and
	// integer ratios (e.g. the A->B->2P pathway carries flux 2 on r4).
	p, red := problemFor(t, model.Toy())
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < res.Modes.Len(); i++ {
		if supportKey(p, red, res.Modes, i) != "r1,r4,r5,r7" {
			continue
		}
		found = true
		flux, err := ReconstructFlux(p, res.Modes, i)
		if err != nil {
			t.Fatal(err)
		}
		get := func(name string) *big.Rat {
			return flux[red.ColumnIndexByOriginal(name)]
		}
		// r7 produces 2P: r4 (P export) carries twice r7's flux.
		lhs := new(big.Rat).Mul(get("r4"), big.NewRat(1, 2))
		if lhs.Cmp(get("r7")) != 0 {
			t.Fatalf("r4 should be 2*r7: r4=%v r7=%v", get("r4"), get("r7"))
		}
		if get("r1").Cmp(get("r5")) != 0 {
			t.Fatalf("r1 != r5: %v vs %v", get("r1"), get("r5"))
		}
	}
	if !found {
		t.Fatal("A->B->2P pathway not found")
	}
}
