package core

import (
	"fmt"
	"sort"
	"sync/atomic"
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

// canonicalProblems are the folds' fixtures: the toy network, split
// problems — whose futile pairs fold to no set and whose ± orientations
// of a fully reversible mode, here the reversible cycle's, fold to one —
// and, outside -short, yeast1-dd-R19r.
func canonicalProblems(t *testing.T) []struct {
	name string
	p    *nullspace.Problem
} {
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
	return problems
}

// TestCanonicalSupportsMatchesHashedDedup: sorting the folded modes and
// dropping adjacent equals gives the hash-bucket list set for set, on
// every canonicalProblems fixture.
func TestCanonicalSupportsMatchesHashedDedup(t *testing.T) {
	for _, tc := range canonicalProblems(t) {
		res, err := Run(tc.p, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, want := CanonicalSupports(res), hashedSupports(res)
		assertSameSupports(t, tc.name+": CanonicalSupports", got, want)
		t.Logf("%s: %d modes fold to %d supports", tc.name, res.Modes.Len(), len(got))
	}
}

// assertSameSupports fails unless got and want are the same list: the
// same sets, widths and words, in the same order.
func assertSameSupports(t *testing.T, what string, got, want []bitset.Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d supports, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: support %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestFoldShardsMatchOneShard: the sharded fold returns the one-shard
// list, set for set and in order, at 2, 3 and 7 shards and, where the
// set is small, at more shards than modes. A filter is asked about every
// mode exactly once at every shard count, and what it drops is dropped.
// Shards write their own parts concurrently, so this runs under -race in
// CI.
func TestFoldShardsMatchOneShard(t *testing.T) {
	for _, tc := range canonicalProblems(t) {
		res, err := Run(tc.p, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		n := res.Modes.Len()
		counts := []int{1, 2, 3, 7}
		if n < 100 {
			counts = append(counts, n+5)
		}
		fold := Fold{Problem: res.Problem, Modes: res.Modes, Width: res.Problem.OrigQ()}
		want := hashedSupports(res)
		even := Fold{Problem: res.Problem, Modes: res.Modes, Width: res.Problem.OrigQ()}
		var asked []atomic.Int32
		even.Filter = func() func(i int) bool {
			return func(i int) bool {
				asked[i].Add(1)
				return i%2 == 0
			}
		}
		asked = make([]atomic.Int32, n)
		wantEven := even.Supports(1)
		for _, shards := range counts {
			what := fmt.Sprintf("%s, %d shards", tc.name, shards)
			assertSameSupports(t, what, fold.Supports(shards), want)
			asked = make([]atomic.Int32, n)
			assertSameSupports(t, what+", even modes", even.Supports(shards), wantEven)
			for i := range asked {
				if c := asked[i].Load(); c != 1 {
					t.Fatalf("%s: the filter was asked about mode %d %d times, want once", what, i, c)
				}
			}
		}
	}
}

// TestFoldShardsGrant: a fold is sharded over at most the run's CPU
// grant, RunNode's pool, and over one shard below foldShardMin modes a
// shard.
func TestFoldShardsGrant(t *testing.T) {
	for _, c := range []struct{ grant, n, want int }{
		{0, 1 << 20, 1}, {1, 1 << 20, 1}, {2, 1 << 20, 2}, {8, 3 * foldShardMin, 3},
		{4, foldShardMin - 1, 1}, {4, 0, 1},
	} {
		if got := FoldShards(c.grant, c.n); got != c.want {
			t.Errorf("FoldShards(%d, %d) = %d, want %d", c.grant, c.n, got, c.want)
		}
	}
	toy, _ := problemFor(t, model.Toy())
	for _, w := range []int{1, 3} {
		res, err := Run(toy, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if res.workers != w {
			t.Errorf("Workers %d: the result grants its fold %d CPUs", w, res.workers)
		}
	}
}
