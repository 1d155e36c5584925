package core

import (
	"fmt"
	"testing"

	"elmocomp/internal/linalg"
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

// sweepRange is the reference of GenerateIntoScratch: it walks pairs
// [from, to) of the row one by one, pre-tests each with unionFits and
// combines and rank-tests the survivors, visiting every pair. It never
// asks the generation tree.
func sweepRange(it *RowIter, cands *ModeSet, ws *linalg.Workspace, from, to int64, st *IterStats) {
	g := newGenCall(it, cands, ws, st, &GenScratch{})
	nNeg, to := int64(len(it.Neg)), min(to, it.Pairs())
	for k := from; k < to; k++ {
		kn := int(k % nNeg)
		if k == from || kn == 0 {
			g.column(it.Pos[k/nNeg])
		}
		st.Pairs++
		st.Visited++
		if !it.unionFits(g.bp, g.pi, it.Neg[kn]) {
			st.Prefiltered++
			continue
		}
		g.combine(kn)
	}
}

// sweepRun is Run on one worker with sweepRange in place of the
// generation tree, up to lastRow (0: to the end): the every-pair
// reference engine.
func sweepRun(t *testing.T, p *nullspace.Problem, lastRow int) *Result {
	t.Helper()
	if lastRow <= 0 {
		lastRow = p.Q()
	}
	res := &Result{Problem: p}
	set := InitialModeSet(p, zeroTol)
	ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
	for row := p.D; row < lastRow; row++ {
		it := BeginRow(p, set, row, Options{})
		cands := it.NewCandidateSet()
		sweepRange(it, cands, ws, 0, it.Pairs(), &it.Stats)
		next, err := it.AssembleNext(cands)
		if err != nil {
			t.Fatal(err)
		}
		res.Stats = append(res.Stats, it.Stats)
		set = next
	}
	res.Modes = set
	return res
}

// requireTreeMatchesSweep runs p up to lastRow (0: to the end) with the
// generation tree at workers 1, 4 and 8 and as the every-pair sweepRun,
// and requires the same modes, the same fingerprint and, row by row, the
// same logical counters: the tree only skips probing pairs the pre-test
// rejects, so every candidate that passes the support bounds reaches the
// rank test. Nothing records a tree reject. It returns the pairs the
// one-worker tree run visited and generated.
func requireTreeMatchesSweep(t *testing.T, name string, p *nullspace.Problem, lastRow int) (visited, pairs int64) {
	t.Helper()
	sweep := sweepRun(t, p, lastRow)
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
// late rows are large enough for the generation tree to prune.
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
