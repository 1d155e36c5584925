package model

import (
	"math/big"
	"strings"
	"testing"
)

func TestParseReactionBasic(t *testing.T) {
	r, err := ParseReaction("R4 : F6P + ATP => FDP + ADP")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "R4" || r.Reversible {
		t.Fatalf("parsed %+v", r)
	}
	if len(r.Substrates) != 2 || len(r.Products) != 2 {
		t.Fatalf("terms: %+v", r)
	}
	if r.Substrates[1].Met != "ATP" || r.Substrates[1].Coef.Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatalf("substrate: %+v", r.Substrates[1])
	}
}

func TestParseReactionReversibleAndCoefficients(t *testing.T) {
	r, err := ParseReaction("R32r : ACCOA + 2 NADH <=> ETOH + 2 NAD + COA")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reversible {
		t.Fatal("not reversible")
	}
	if r.Substrates[1].Coef.Cmp(big.NewRat(2, 1)) != 0 {
		t.Fatalf("coef: %v", r.Substrates[1].Coef)
	}
}

func TestParseReactionRationalCoefficient(t *testing.T) {
	r, err := ParseReaction("X : 1/2 O2 + H2 => H2O")
	if err != nil {
		t.Fatal(err)
	}
	if r.Substrates[0].Coef.Cmp(big.NewRat(1, 2)) != 0 {
		t.Fatalf("coef: %v", r.Substrates[0].Coef)
	}
	r2, err := ParseReaction("Y : 0.5 O2 => Oh")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Substrates[0].Coef.Cmp(big.NewRat(1, 2)) != 0 {
		t.Fatalf("decimal coef: %v", r2.Substrates[0].Coef)
	}
}

func TestParseReactionErrors(t *testing.T) {
	bad := []string{
		"no colon here",
		" : A => B",
		"R : A - B",
		"R : A => two words B",
		"R : -1 A => B",
		"R : 0 A => B",
		"R :  => ",
	}
	for _, line := range bad {
		if _, err := ParseReaction(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestParseNetworkDirectives(t *testing.T) {
	src := `
# a comment
name demo
external BIO X

R1 : Aext => A    # trailing comment
R2 : A => BIO + X
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "demo" {
		t.Fatalf("name = %q", n.Name)
	}
	if !n.IsExternal("BIO") || !n.IsExternal("X") || !n.IsExternal("Aext") {
		t.Fatal("external flags wrong")
	}
	if n.IsExternal("A") {
		t.Fatal("A should be internal")
	}
	mets := n.InternalMetabolites()
	if len(mets) != 1 || mets[0] != "A" {
		t.Fatalf("internal mets = %v", mets)
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	_, err := ParseString("R1 : A => B\nbroken line\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
	if _, err := ParseString("# only comments\n"); err == nil {
		t.Fatal("empty network accepted")
	}
	if _, err := ParseString("R1 : A => B\nR1 : A => B\n"); err == nil {
		t.Fatal("duplicate reaction accepted")
	}
}

func TestStoichiometryToyMatchesPaperEq2(t *testing.T) {
	n := Toy()
	N, mets := n.Stoichiometry()
	if len(mets) != 5 {
		t.Fatalf("internal metabolites = %v", mets)
	}
	if N.Rows() != 5 || N.Cols() != 9 {
		t.Fatalf("N is %dx%d", N.Rows(), N.Cols())
	}
	// Equation (2), rows A,B,C,D,P × columns r1..r9.
	want := [][]int64{
		{1, -1, 0, 0, -1, 0, 0, 0, 0},
		{0, 0, 0, 0, 1, -1, -1, -1, 0},
		{0, 1, -1, 0, 0, 1, 0, 0, 0},
		{0, 0, 1, 0, 0, 0, 0, 0, -1},
		{0, 0, 1, -1, 0, 0, 2, 0, 0},
	}
	rowOf := map[string]int{"A": 0, "B": 1, "C": 2, "D": 3, "P": 4}
	for i, m := range mets {
		wi := rowOf[m]
		for j := 0; j < 9; j++ {
			if N.At(i, j).Cmp(big.NewRat(want[wi][j], 1)) != 0 {
				t.Errorf("N[%s][%s] = %v, want %d", m, n.Reactions[j].Name, N.At(i, j), want[wi][j])
			}
		}
	}
	revs := n.Reversibilities()
	for j, r := range n.Reactions {
		wantRev := r.Name == "r6r" || r.Name == "r8r"
		if revs[j] != wantRev {
			t.Errorf("reversibility of %s = %v", r.Name, revs[j])
		}
	}
}

func TestYeastIDimensionsMatchPaper(t *testing.T) {
	n := YeastI()
	if got := len(n.Reactions); got != 78 {
		t.Fatalf("Network I reactions = %d, want 78", got)
	}
	if got := len(n.InternalMetabolites()); got != 62 {
		t.Fatalf("Network I internal metabolites = %d, want 62", got)
	}
	nIrrev, nRev := 0, 0
	for _, r := range n.Reactions {
		if r.Reversible {
			nRev++
		} else {
			nIrrev++
		}
	}
	if nIrrev != 47 || nRev != 31 {
		t.Fatalf("irrev/rev = %d/%d, want 47/31 (Figs 3-4)", nIrrev, nRev)
	}
	if n.IsExternal("BIO") == false {
		t.Fatal("BIO must be external")
	}
	// The published listing has dead-end cytosolic FAD/FADH (their only
	// consumers R56/R57 exist in Network II) and unconsumed O2; these are
	// exactly the structures the reducer removes. Assert we flag them.
	warnings := strings.Join(n.Validate(), "; ")
	for _, met := range []string{"FADH", "FAD", "O2"} {
		if !strings.Contains(warnings, met+" ") {
			t.Errorf("expected dead-end warning for %s, got: %s", met, warnings)
		}
	}
}

func TestYeastIIDimensionsMatchPaper(t *testing.T) {
	n := YeastII()
	if got := len(n.Reactions); got != 83 {
		t.Fatalf("Network II reactions = %d, want 83", got)
	}
	if got := len(n.InternalMetabolites()); got != 63 {
		t.Fatalf("Network II internal metabolites = %d, want 63", got)
	}
	for _, name := range []string{"R54r", "R60r", "R63r"} {
		i := n.ReactionIndex(name)
		if i < 0 || !n.Reactions[i].Reversible {
			t.Errorf("%s missing or not reversible", name)
		}
	}
	for _, name := range []string{"R54", "R60", "R63"} {
		if n.ReactionIndex(name) >= 0 {
			t.Errorf("%s should have been renamed", name)
		}
	}
	// R62 must consume internal GLC, not GLCext.
	r62 := n.Reactions[n.ReactionIndex("R62")]
	if r62.Substrates[0].Met != "GLC" {
		t.Fatalf("R62 substrates: %+v", r62.Substrates)
	}
	// Network I must be unaffected (deep copy).
	if YeastI().ReactionIndex("R54") < 0 {
		t.Fatal("YeastII construction mutated YeastI")
	}
}

func TestBuiltinLookup(t *testing.T) {
	// Toy network is fully connected: no warnings. The yeast networks
	// have the published dead ends (see TestYeastIDimensionsMatchPaper).
	if w := Toy().Validate(); len(w) != 0 {
		t.Errorf("toy: warnings %v", w)
	}
	for _, name := range BuiltinNames() {
		if Builtin(name) == nil {
			t.Errorf("Builtin(%q) = nil", name)
		}
	}
	if Builtin("nope") != nil {
		t.Fatal("unknown builtin should be nil")
	}
}

func TestRoundTripThroughString(t *testing.T) {
	for _, name := range BuiltinNames() {
		orig := Builtin(name)
		parsed, err := ParseString(orig.String())
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		No, _ := orig.Stoichiometry()
		Np, _ := parsed.Stoichiometry()
		if !No.Equal(Np) {
			t.Fatalf("%s: stoichiometry changed through round trip", name)
		}
		for i := range orig.Reactions {
			if orig.Reactions[i].Name != parsed.Reactions[i].Name ||
				orig.Reactions[i].Reversible != parsed.Reactions[i].Reversible {
				t.Fatalf("%s: reaction %d changed", name, i)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := Toy()
	c := n.Clone()
	c.Reactions[0].Substrates[0].Coef.SetInt64(99)
	c.Reactions[0].Name = "changed"
	if n.Reactions[0].Name == "changed" {
		t.Fatal("Clone shares reaction headers")
	}
	if n.Reactions[0].Substrates[0].Coef.Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatal("Clone shares coefficients")
	}
}

func TestSetReversibleAndReplace(t *testing.T) {
	n := Toy()
	r, _ := ParseReaction("r2 : A <=> B")
	if err := n.ReplaceReaction("r2", r); err != nil {
		t.Fatal(err)
	}
	if !n.Reactions[n.ReactionIndex("r2")].Reversible {
		t.Fatal("ReplaceReaction had no effect")
	}
	if err := n.ReplaceReaction("bogus", r); err == nil {
		t.Fatal("ReplaceReaction on missing reaction succeeded")
	}
}

func TestExternalMetabolites(t *testing.T) {
	n := Toy()
	ext := n.ExternalMetabolites()
	want := []string{"Aext", "Bext", "Dext", "Pext"}
	if len(ext) != len(want) {
		t.Fatalf("externals = %v", ext)
	}
	for i := range want {
		if ext[i] != want[i] {
			t.Fatalf("externals = %v, want %v", ext, want)
		}
	}
}

func TestAddReactionValidation(t *testing.T) {
	n := New("x")
	if err := n.AddReaction(Reaction{Name: ""}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := n.AddReaction(Reaction{Name: "R"}); err == nil {
		t.Fatal("empty stoichiometry accepted")
	}
	bad := Reaction{Name: "R", Substrates: []Term{{Coef: big.NewRat(-1, 1), Met: "A"}}}
	if err := n.AddReaction(bad); err == nil {
		t.Fatal("negative coefficient accepted")
	}
}

func TestEquationRendering(t *testing.T) {
	r, _ := ParseReaction("R : 2 A + B <=> 3 C")
	if got := r.Equation(); got != "2 A + B <=> 3 C" {
		t.Fatalf("Equation = %q", got)
	}
}
