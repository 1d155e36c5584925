package synth

import (
	"testing"

	"elmocomp/internal/bitset"
	"elmocomp/internal/core"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
)

func TestDeterministic(t *testing.T) {
	p := Params{Layers: 3, Width: 3, CrossLinks: 2, ReversibleFraction: 0.3, Seed: 7}
	a, err := Network(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Network(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different networks")
	}
	c, err := Network(Params{Layers: 3, Width: 3, CrossLinks: 2, ReversibleFraction: 0.3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical networks")
	}
}

func TestParamValidation(t *testing.T) {
	if _, err := Network(Params{Layers: 1, Width: 3}); err == nil {
		t.Fatal("Layers=1 accepted")
	}
	if _, err := Network(Params{Layers: 2, Width: 0}); err == nil {
		t.Fatal("Width=0 accepted")
	}
	if _, err := Network(Params{Layers: 2, Width: 2, ReversibleFraction: 1.5}); err == nil {
		t.Fatal("bad fraction accepted")
	}
}

func TestFluxConsistentAndComputable(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		n, err := Network(Params{
			Layers: 3, Width: 3, CrossLinks: 3,
			ReversibleFraction: 0.25, MaxCoef: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if w := n.Validate(); len(w) != 0 {
			t.Fatalf("seed %d: dead ends in generated network: %v", seed, w)
		}
		red, err := reduce.Network(n, reduce.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(red.Zero) != 0 {
			t.Errorf("seed %d: %d zero-flux reactions in a consistent network", seed, len(red.Zero))
		}
		p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := core.Run(p, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Modes.Len() < 3 {
			t.Errorf("seed %d: only %d EFMs — generator too sparse", seed, res.Modes.Len())
		}
		// Exact nullity 1 per mode also rules out a support strictly
		// inside another; only repeats need the Distinct pass.
		var seen bitset.Distinct
		for i := 0; i < res.Modes.Len(); i++ {
			if _, err := core.ExactFlux(p.NExact, p.Rev, res.Modes.SupportIndices(i, nil)); err != nil {
				t.Fatalf("seed %d: mode %d: %v", seed, i, err)
			}
			if !seen.Add(res.Modes.Support(i)) {
				t.Fatalf("seed %d: mode %d repeats an earlier mode's support", seed, i)
			}
		}
	}
}

func TestSizeScalesWithParams(t *testing.T) {
	small, err := Network(Params{Layers: 2, Width: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Network(Params{Layers: 5, Width: 6, CrossLinks: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Reactions) <= len(small.Reactions) {
		t.Fatal("bigger params did not grow the network")
	}
	if len(big.InternalMetabolites()) != 5*6 {
		t.Fatalf("internal metabolites = %d, want 30", len(big.InternalMetabolites()))
	}
}
