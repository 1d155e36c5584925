package core

import (
	"fmt"
	"testing"

	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
	"elmocomp/internal/synth"
)

// pointed reports whether a problem's flux cone is pointed: no reversible
// rows remain.
func pointed(rev []bool) bool {
	for _, r := range rev {
		if r {
			return false
		}
	}
	return true
}

// pointedProblems builds pointed fixtures: the toy network and
// reversible-rich synthetics with every reversible reaction split, plus a
// synthetic that is pointed as written (no reversible reactions at all).
func pointedProblems(t *testing.T) map[string]*nullspace.Problem {
	t.Helper()
	nets := map[string]*model.Network{"toy": model.Toy()}
	for _, ps := range []synth.Params{
		{Layers: 4, Width: 3, CrossLinks: 5, ReversibleFraction: 0.2, MaxCoef: 2, Seed: 7},
		{Layers: 6, Width: 6, CrossLinks: 14, ReversibleFraction: 0.2, MaxCoef: 2, Seed: 42},
		{Layers: 4, Width: 4, CrossLinks: 8, ReversibleFraction: 0, MaxCoef: 2, Seed: 3},
	} {
		n, err := synth.Network(ps)
		if err != nil {
			t.Fatal(err)
		}
		nets[n.Name] = n
	}
	out := make(map[string]*nullspace.Problem)
	for name, n := range nets {
		red, err := reduce.Network(n, reduce.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{SplitAllReversible: true})
		if err != nil {
			t.Fatal(err)
		}
		if !pointed(p.Rev) {
			t.Fatalf("%s: fixture not pointed after splitting", name)
		}
		out[name] = p
	}
	return out
}

// requireTreeMatchesSweep runs p up to lastRow (0: to the end) with the
// generation tree at workers 1, 4 and 8 and as the plain every-pair sweep,
// and requires the same modes, the same fingerprint and, row by row, the
// same logical counters: the tree only skips probing pairs the pre-test
// rejects, so every candidate that passes the support bounds reaches the
// rank test. Nothing records a tree reject. It returns the pairs the
// one-worker tree run visited and generated.
func requireTreeMatchesSweep(t *testing.T, name string, p *nullspace.Problem, lastRow int) (visited, pairs int64) {
	t.Helper()
	sweep, err := Run(p, Options{LastRow: lastRow, Workers: 1, DisableHybrid: true})
	if err != nil {
		t.Fatalf("%s: sweep: %v", name, err)
	}
	for _, workers := range []int{1, 4, 8} {
		label := fmt.Sprintf("%s workers=%d", name, workers)
		tree, err := Run(p, Options{LastRow: lastRow, Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireIdenticalSets(t, label, sweep.Modes, tree.Modes)
		if tf, sf := tree.Modes.Fingerprint(), sweep.Modes.Fingerprint(); tf != sf {
			t.Fatalf("%s: fingerprint %016x, want %016x", label, tf, sf)
		}
		for i, s := range tree.Stats {
			ref := sweep.Stats[i]
			if s.Pairs != ref.Pairs || s.Prefiltered != ref.Prefiltered || s.Tested != ref.Tested ||
				s.Eliminated != ref.Eliminated || s.Accepted != ref.Accepted ||
				s.Duplicates != ref.Duplicates || s.ModesOut != ref.ModesOut {
				t.Fatalf("%s row %d: counters diverge:\n got %+v\nwant %+v", label, i, s, ref)
			}
			if s.TreeRejects != 0 || ref.TreeRejects != 0 {
				t.Fatalf("%s row %d: tree rejects %d and %d recorded", label, i, s.TreeRejects, ref.TreeRejects)
			}
			if workers == 1 {
				visited += s.Visited
				pairs += s.Pairs
			}
		}
	}
	return visited, pairs
}

// TestHybridMatchesRankOnlyPointed: on pointed problems the generation
// tree changes no mode, value or logical counter of the every-pair sweep.
func TestHybridMatchesRankOnlyPointed(t *testing.T) {
	for name, p := range pointedProblems(t) {
		requireTreeMatchesSweep(t, name, p, 0)
	}
}

// TestHybridInertOnNonPointed: the same holds on the unsplit formulation,
// the one every request runs — with reversible rows present as well.
func TestHybridInertOnNonPointed(t *testing.T) {
	for name, p := range fixtureProblems(t) {
		if pointed(p.Rev) {
			continue
		}
		requireTreeMatchesSweep(t, name, p, 0)
	}
}

// TestHybridMatchesRankOnlyYeastPrefix: the split Network I prefix, whose
// late rows are large enough to open the generation tree and let it prune.
// Its early rows include candidates whose exact support shrinks below the
// parents' union through cancellation in unprocessed rows, which the
// exact support bounds, not the union, must decide.
func TestHybridMatchesRankOnlyYeastPrefix(t *testing.T) {
	red, err := reduce.Network(model.YeastI(), reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{SplitAllReversible: true})
	if err != nil {
		t.Fatal(err)
	}
	if visited, pairs := requireTreeMatchesSweep(t, "split yeast1 prefix", p, p.D+20); visited >= pairs {
		t.Fatalf("visited %d of %d pairs: the generation tree never pruned", visited, pairs)
	}
}
