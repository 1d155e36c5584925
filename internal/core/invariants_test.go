package core

import (
	"math/rand"
	"testing"

	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/ratmat"
	"elmocomp/internal/reduce"
	"elmocomp/internal/synth"
)

// TestIterationAccountingInvariant checks the bookkeeping identities of
// every iteration: modes out = zero + pos (+ neg if reversible) +
// accepted - duplicates; every pair is a pre-test rejection, a tree
// rejection or a rank test; and the pairs visited one by one are at most
// all of them — exactly all of them with the trees switched off. The
// Network I prefix is there for rows large enough to open the generation
// tree, which must then leave pairs unvisited.
func TestIterationAccountingInvariant(t *testing.T) {
	type fixture struct {
		name string
		p    *nullspace.Problem
		opts Options
	}
	yeast := yeastProblem(t)
	fixtures := []fixture{{"yeast1 prefix", yeast, Options{LastRow: yeast.D + 21}}}
	nets := []*model.Network{model.Toy()}
	for seed := int64(0); seed < 4; seed++ {
		n, err := synth.Network(synth.Params{
			Layers: 3, Width: 3, CrossLinks: 3,
			ReversibleFraction: 0.3, MaxCoef: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	for _, n := range nets {
		red, err := reduce.Network(n, reduce.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{n.Name, p, Options{}})
	}
	for _, f := range fixtures {
		res, err := Run(f.p, f.opts)
		if err != nil {
			t.Fatal(err)
		}
		linearOpts := f.opts
		linearOpts.DisableHybrid = true
		linear, err := Run(f.p, linearOpts)
		if err != nil {
			t.Fatal(err)
		}
		var pairs, visited int64
		for i, s := range res.Stats {
			pairs += s.Pairs
			visited += s.Visited
			if s.Pairs != s.Prefiltered+s.TreeRejects+s.Tested || s.Visited > s.Pairs || s.Eliminated > s.Tested {
				t.Fatalf("%s row %d: pair accounting inconsistent: %+v", f.name, s.Row, s)
			}
			if l := linear.Stats[i]; l.Visited != l.Pairs || l.Pairs != s.Pairs {
				t.Fatalf("%s row %d: linear sweep visited %d of %d pairs (default engine: %d pairs)", f.name, s.Row, l.Visited, l.Pairs, s.Pairs)
			}
			keep := s.Zero + s.Pos
			if s.Reversible {
				keep += s.Neg
			}
			want := keep + int(s.Accepted-s.Duplicates)
			if s.ModesOut != want {
				t.Fatalf("%s row %d: out=%d, want %d (zero=%d pos=%d neg=%d rev=%v acc=%d dup=%d)",
					f.name, s.Row, s.ModesOut, want, s.Zero, s.Pos, s.Neg, s.Reversible, s.Accepted, s.Duplicates)
			}
			if s.Prefiltered+s.Accepted > s.Pairs+s.Duplicates {
				t.Fatalf("%s row %d: filter accounting inconsistent: %+v", f.name, s.Row, s)
			}
		}
		if f.p == yeast && visited*2 > pairs {
			t.Fatalf("%s: visited %d of %d pairs, the generation tree pruned too little", f.name, visited, pairs)
		}
	}
}

// TestMonotoneStopConsistency: running to row k and then observing the
// partition at k must agree with a fresh run stopped at k (the engine is
// deterministic and history-free at iteration boundaries).
func TestMonotoneStopConsistency(t *testing.T) {
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for last := p.D + 1; last <= p.Q(); last++ {
		partial, err := Run(p, Options{LastRow: last})
		if err != nil {
			t.Fatal(err)
		}
		if partial.Modes.FirstRow() != last {
			t.Fatalf("stop %d: FirstRow %d", last, partial.Modes.FirstRow())
		}
		for i, s := range partial.Stats {
			f := full.Stats[i]
			if s.Pairs != f.Pairs || s.Accepted != f.Accepted || s.ModesOut != f.ModesOut {
				t.Fatalf("stop %d iteration %d diverges from full run", last, i)
			}
		}
	}
}

// runAtTol runs the serial engine with the package's zero tolerance
// replaced for the duration of the run.
func runAtTol(p *nullspace.Problem, tol float64) (*Result, error) {
	defer func(old float64) { zeroTol = old }(zeroTol)
	zeroTol = tol
	return Run(p, Options{})
}

// TestTolalphaRobustness: the toy result must be identical across a wide
// tolerance range (the data is integral and tiny).
func TestToleranceRobustnessToy(t *testing.T) {
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tol := range []float64{1e-6, 1e-9, 1e-12} {
		res, err := runAtTol(p, tol)
		if err != nil {
			t.Fatal(err)
		}
		if res.Modes.Len() != 8 {
			t.Fatalf("tol %g: %d EFMs", tol, res.Modes.Len())
		}
	}
}

// TestToleranceRobustnessSynth: a mid-size synthetic network must give
// the same EFM count across tolerances — a drift here would signal the
// kind of float erosion that plagues deep double-description runs.
func TestToleranceRobustnessSynth(t *testing.T) {
	n, err := synth.Network(synth.Params{
		Layers: 5, Width: 5, CrossLinks: 10,
		ReversibleFraction: 0.25, MaxCoef: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	red, err := reduce.Network(n, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[float64]int{}
	for _, tol := range []float64{1e-7, 1e-9, 1e-11} {
		res, err := runAtTol(p, tol)
		if err != nil {
			t.Fatal(err)
		}
		counts[tol] = res.Modes.Len()
	}
	ref := counts[1e-9]
	for tol, c := range counts {
		if c != ref {
			t.Fatalf("tolerance sensitivity: tol=%g gives %d EFMs vs %d at 1e-9 (%v)", tol, c, ref, counts)
		}
	}
	if err := VerifyModes(p, mustRun(t, p)); err != nil {
		t.Fatal(err)
	}
}

func mustRun(t *testing.T, p *nullspace.Problem) *ModeSet {
	t.Helper()
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Modes
}

// TestRandomSeedsSweep broadens the brute-force cross-check with a
// deterministic but larger sample than the quick test.
func TestRandomSeedsSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	checked := 0
	for seed := int64(400); checked < 40 && seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		q := m + 2 + rng.Intn(4)
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
		keep := N.IndependentRows()
		if len(keep) == 0 {
			continue
		}
		N = N.SelectRows(keep)
		rev := make([]bool, q)
		for j := range rev {
			rev[j] = rng.Intn(3) == 0
		}
		want := bruteForceEFMs(N, rev)
		got := algorithmSupports(t, N, rev, nullspace.Heuristics{})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d vs %d EFMs: %s", seed, len(got), len(want), diffSets(got, want))
		}
		checked++
	}
}
