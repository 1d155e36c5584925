package revsearch

import (
	"bytes"
	"fmt"
	"testing"

	"elmocomp/internal/core"
	"elmocomp/internal/linalg"
	"elmocomp/internal/synth"
)

// propertyPoints are the networks the invariant tests sweep: small
// enough to traverse in milliseconds, varied enough to cover pointed,
// mixed and fully reversible cones.
func propertyPoints(t *testing.T) []synth.Params {
	t.Helper()
	return []synth.Params{
		{Layers: 2, Width: 2, CrossLinks: 1, ReversibleFraction: 0, MaxCoef: 2, Seed: 7},
		{Layers: 3, Width: 2, CrossLinks: 2, ReversibleFraction: 0.4, MaxCoef: 2, Seed: 8},
		{Layers: 3, Width: 3, CrossLinks: 3, ReversibleFraction: 0.5, MaxCoef: 2, Seed: 9},
		{Layers: 3, Width: 2, CrossLinks: 3, ReversibleFraction: 1, MaxCoef: 2, Seed: 10},
	}
}

// TestRevsearchModesAreElementary holds every emitted vertex support to
// the exact algebraic rank test: the stoichiometric submatrix over the
// support must have nullity exactly one in the split problem. Reverse
// search never runs that test itself — vertices of the normalized
// polytope are extreme rays by construction — so this checks the
// geometric argument against the algebra it is supposed to encode.
func TestRevsearchModesAreElementary(t *testing.T) {
	for _, pt := range propertyPoints(t) {
		pt := pt
		t.Run(fmt.Sprintf("seed%d", pt.Seed), func(t *testing.T) {
			res := runPoint(t, pt, Options{Workers: 1})
			p := res.Problem
			ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
			var scratch []int
			for i := 0; i < res.Modes.Len(); i++ {
				if !core.IsElementaryWS(p, res.Modes, i, 0, ws, scratch) {
					t.Errorf("mode %d fails the exact rank test", i)
				}
			}
			if res.Modes.Len() == 0 {
				t.Fatal("no modes emitted")
			}
		})
	}
}

// TestRevsearchNoCanonicalDuplicates folds the emitted supports through
// the canonical pipeline (futile-pair elimination, ± orientation dedup,
// lexicographic sort) and requires the result to be strictly
// duplicate-free — the property the deterministic merge relies on.
func TestRevsearchNoCanonicalDuplicates(t *testing.T) {
	for _, pt := range propertyPoints(t) {
		pt := pt
		t.Run(fmt.Sprintf("seed%d", pt.Seed), func(t *testing.T) {
			res := runPoint(t, pt, Options{Workers: 1})
			supports := core.CanonicalSupports(res.CoreResult())
			for i := 1; i < len(supports); i++ {
				a, b := supports[i-1], supports[i]
				same := a.Words() == b.Words()
				for w := 0; same && w < a.Words(); w++ {
					same = a.Word(w) == b.Word(w)
				}
				if same {
					t.Errorf("canonical supports %d and %d are identical", i-1, i)
				}
			}
		})
	}
}

// TestRevsearchWorkerDeterminism requires the encoded mode set to be
// byte-identical across worker counts 1/4/8 and across subtree budgets
// down to one node per job — the traversal's visited set is a pure
// function of the lp, so scheduling must be invisible in the output.
func TestRevsearchWorkerDeterminism(t *testing.T) {
	for _, pt := range propertyPoints(t) {
		pt := pt
		t.Run(fmt.Sprintf("seed%d", pt.Seed), func(t *testing.T) {
			ref := runPoint(t, pt, Options{Workers: 1})
			want := ref.Modes.Encode()
			for _, opt := range []Options{
				{Workers: 4, SubtreeBudget: 1},
				{Workers: 4, SubtreeBudget: 16},
				{Workers: 8, SubtreeBudget: 2048},
				{Workers: 8, SubtreeBudget: 7},
			} {
				res := runPoint(t, pt, opt)
				if !bytes.Equal(res.Modes.Encode(), want) {
					t.Errorf("workers=%d budget=%d: mode set differs from sequential traversal",
						opt.Workers, opt.SubtreeBudget)
				}
				if res.Stats.Bases != ref.Stats.Bases || res.Stats.MaxDepth != ref.Stats.MaxDepth {
					t.Errorf("workers=%d budget=%d: visited %d bases depth %d, sequential %d depth %d",
						opt.Workers, opt.SubtreeBudget, res.Stats.Bases, res.Stats.MaxDepth,
						ref.Stats.Bases, ref.Stats.MaxDepth)
				}
			}
		})
	}
}

// runPoint generates the synthetic network, reduces it and runs the
// reverse search on the reduced problem.
func runPoint(t *testing.T, pt synth.Params, opts Options) *Result {
	t.Helper()
	red := reducedNet(t, synthNet(t, pt))
	res, err := Run(red.N, red.Reversibilities(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
