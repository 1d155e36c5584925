package core

import (
	"testing"

	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
)

// yeastDDProblem is the benchmark's yeast1-dd-R19r input: Network I
// without R32r, R72 and R19r, reduced as every request path reduces it.
func yeastDDProblem(tb testing.TB) *nullspace.Problem {
	tb.Helper()
	net := model.YeastI()
	kept := net.Reactions[:0:0]
	for _, r := range net.Reactions {
		if r.Name != "R32r" && r.Name != "R72" && r.Name != "R19r" {
			kept = append(kept, r)
		}
	}
	net.Reactions = kept
	red, err := reduce.Network(net, reduce.Options{MergeDuplicates: true})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestGenerationTreeYeastPins holds the generation tree to the logical
// work the benchmark pins on yeast-serial (bench/expected.json,
// yeast1-dd-R19r): a pair the tree rules out by its subtree is still a
// candidate and still a pre-test rejection, so all six counters are the
// plain sweep's — and the tree must actually prune, leaving at most a
// twentieth of the pairs to be probed one by one. Eliminated is this
// engine's own: the rank tests the live-row count left to an elimination,
// fewer than half.
func TestGenerationTreeYeastPins(t *testing.T) {
	if testing.Short() {
		t.Skip("~1s of enumeration")
	}
	res, err := Run(yeastDDProblem(t), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sum IterStats
	for _, s := range res.Stats {
		AddGenStats(&sum, &s)
		sum.Duplicates += s.Duplicates
	}
	want := IterStats{Pairs: 112314756, Prefiltered: 111718306, Tested: 596450, Eliminated: 267381, Accepted: 35637, Duplicates: 2081}
	if sum.Pairs != want.Pairs || sum.Prefiltered != want.Prefiltered || sum.Tested != want.Tested ||
		sum.Eliminated != want.Eliminated || sum.Accepted != want.Accepted || sum.Duplicates != want.Duplicates || res.PeakBytes() != 4476472 {
		t.Fatalf("pinned counters moved: got %+v peak %d", sum, res.PeakBytes())
	}
	if n := len(CanonicalSupports(res)); n != 28045 {
		t.Fatalf("%d modes, want 28045", n)
	}
	if sum.Visited*20 > sum.Pairs {
		t.Fatalf("visited %d of %d pairs, want at most 5%%", sum.Visited, sum.Pairs)
	}
	t.Logf("visited %d of %d pairs (%.2f%%)", sum.Visited, sum.Pairs, 100*float64(sum.Visited)/float64(sum.Pairs))
}
