package core

import (
	"fmt"
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
// engine's own: the rank tests neither the live-row count nor the
// structural peel decided. It was 267,381 under the count alone; the peel
// rejects 76,619 of those by their free columns and decides 150 outright.
// It counts a test whose verdict is an elimination's whether the
// elimination ran or its verdict was read from the worker's verdict
// table, so the table leaves it at 190,612 at every worker count, though
// most of those verdicts are now read, not eliminated again.
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
	want := IterStats{Pairs: 112314756, Prefiltered: 111718306, Tested: 596450, Eliminated: 190612, Accepted: 35637, Duplicates: 2081}
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

// TestTwoWordYeastPrefixPins pins the two-word regime, which no benchmark
// network reaches: the Network I prefix TestIterationAccountingInvariant
// runs (q = 65, so every support and every liveMask is two words) at one
// and two workers. The summed logical counters and the mode set's
// fingerprint were recorded from the engine that stored every candidate
// and rolled the rejected ones back; deciding before storing keeps them.
func TestTwoWordYeastPrefixPins(t *testing.T) {
	p := yeastProblem(t)
	if words := (p.Q() + 63) / 64; words != 2 {
		t.Fatalf("Network I has %d support words, want 2", words)
	}
	for _, workers := range []int{1, 2} {
		res, err := Run(p, Options{LastRow: p.D + 21, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var sum IterStats
		for _, s := range res.Stats {
			AddGenStats(&sum, &s)
			sum.Duplicates += s.Duplicates
		}
		got := fmt.Sprintf("pairs %d prefiltered %d tested %d accepted %d duplicates %d modes %d fingerprint %016x",
			sum.Pairs, sum.Prefiltered, sum.Tested, sum.Accepted, sum.Duplicates, res.Modes.Len(), res.Modes.Fingerprint())
		const want = "pairs 960878 prefiltered 858158 tested 102720 accepted 4798 duplicates 38 modes 3307 fingerprint 449f70b5943d2e4b"
		if got != want {
			t.Fatalf("workers=%d: %s\nwant %s", workers, got, want)
		}
	}
}
