package core

import (
	"sort"
	"testing"

	"elmocomp/internal/bitset"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
)

// hashedSupports is the reference CanonicalSupports is held to: every
// folded mode through a bitset.Distinct hash bucket, then one sort of
// the survivors.
func hashedSupports(res *Result) []bitset.Set {
	var out []bitset.Set
	var seen bitset.Distinct
	for i := 0; i < res.Modes.Len(); i++ {
		if b, ok := res.Problem.Fold(res.Modes.BitsWords(i)); ok && seen.Add(b) {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Compare(out[b]) < 0 })
	return out
}

// TestCanonicalSupportsMatchesHashedDedup: sorting the folded modes and
// dropping adjacent equals gives the hash-bucket list set for set, on
// the toy network, on split problems — whose futile pairs fold to no
// set and whose ± orientations of a fully reversible mode, here the
// reversible cycle's, fold to one — and on yeast1-dd-R19r.
func TestCanonicalSupportsMatchesHashedDedup(t *testing.T) {
	toy, red := problemFor(t, model.Toy())
	split, err := nullspace.New(red.N, red.Reversibilities(), pointedFormulation)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := model.ParseString("name revcycle\nin : Aext <=> A\nc1 : A <=> B\nc2 : B <=> C\nc3 : C <=> A\nout : B => Bext\n")
	if err != nil {
		t.Fatal(err)
	}
	cycleSplit, _ := problemFor(t, cycle)
	problems := []struct {
		name string
		p    *nullspace.Problem
	}{{"toy", toy}, {"toy split", split}, {"reversible cycle", cycleSplit}}
	if !testing.Short() {
		problems = append(problems, struct {
			name string
			p    *nullspace.Problem
		}{"yeast1-dd-R19r", yeastDDProblem(t)})
	}
	for _, tc := range problems {
		res, err := Run(tc.p, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, want := CanonicalSupports(res), hashedSupports(res)
		if len(got) != len(want) {
			t.Fatalf("%s: %d supports, the hashed dedup keeps %d", tc.name, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: support %d is %v, the hashed dedup's is %v", tc.name, i, got[i], want[i])
			}
		}
		t.Logf("%s: %d modes fold to %d supports", tc.name, res.Modes.Len(), len(got))
	}
}
