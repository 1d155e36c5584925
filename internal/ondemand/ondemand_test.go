package ondemand

import (
	"errors"
	"math/big"
	"testing"

	"elmocomp/internal/bitset"
	"elmocomp/internal/core"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/ratmat"
	"elmocomp/internal/reduce"
	"elmocomp/internal/synth"
)

// reducedNet parses and reduces a network for direct generator runs.
func reducedNet(t *testing.T, n *model.Network) *reduce.Reduced {
	t.Helper()
	red, err := reduce.Network(n, reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	return red
}

// serialSupports computes the double-description reference on the same
// reduced network: the canonical support set and its fingerprint.
func serialSupports(t *testing.T, red *reduce.Reduced) ([]bitset.Set, uint64) {
	t.Helper()
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := core.Run(p, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	supports := core.CanonicalSupports(run)
	return supports, core.SupportsFingerprint(supports)
}

// generateAll runs the generator to exhaustion and returns the emitted
// modes in stream order plus the run stats.
func generateAll(t *testing.T, red *reduce.Reduced, opts Options) ([]Mode, Stats) {
	t.Helper()
	var modes []Mode
	st, err := Generate(red.N, red.Reversibilities(), opts, func(m Mode) {
		modes = append(modes, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	return modes, st
}

// fingerprintOf sorts a copy of the emitted supports into canonical
// order and fingerprints them.
func fingerprintOf(modes []Mode) uint64 {
	supports := make([]bitset.Set, len(modes))
	for i, m := range modes {
		supports[i] = m.Support
	}
	sorted := append([]bitset.Set(nil), supports...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Compare(sorted[j-1]) < 0; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return core.SupportsFingerprint(sorted)
}

// assertMembers checks every emitted support appears in the reference
// enumeration, that no support repeats within the stream, and that every
// support is an elementary mode of the reduced N in exact arithmetic:
// nullity 1, no vanishing entry, sign-orientable. The generator does not
// re-check its vertices and the reference folds split supports through
// the same Problem.Fold, so the exact check is what would catch a fold or
// a formulation that emits a non-elementary support.
func assertMembers(t *testing.T, red *reduce.Reduced, modes []Mode, ref []bitset.Set) {
	t.Helper()
	var inRef, seen bitset.Distinct
	for _, s := range ref {
		inRef.Add(s)
	}
	for i, m := range modes {
		if inRef.Add(m.Support) {
			t.Fatalf("mode %d support %v is not in the reference enumeration", i, m.Support)
		}
		if !seen.Add(m.Support) {
			t.Fatalf("mode %d support %v was streamed twice", i, m.Support)
		}
		if _, err := core.ExactFlux(red.N, red.Reversibilities(), m.Support.Indices(nil)); err != nil {
			t.Fatalf("mode %d support %v: %v", i, m.Support, err)
		}
		if m.Rank != i+1 {
			t.Fatalf("mode %d has rank %d", i, m.Rank)
		}
	}
}

// TestGenerateToyMatchesSerial: run-to-exhaustion on the toy network is
// exactly the batch EFM set — every streamed mode is a member, nothing
// repeats, and the sorted fingerprint matches the double-description
// reference.
func TestGenerateToyMatchesSerial(t *testing.T) {
	red := reducedNet(t, model.Builtin("toy"))
	ref, wantFP := serialSupports(t, red)
	modes, st := generateAll(t, red, Options{})
	if len(modes) != len(ref) {
		t.Fatalf("streamed %d modes, reference has %d", len(modes), len(ref))
	}
	if !st.Exhausted {
		t.Fatal("exhaustive run did not report Exhausted")
	}
	assertMembers(t, red, modes, ref)
	if fp := fingerprintOf(modes); fp != wantFP {
		t.Fatalf("fingerprint %016x, want %016x", fp, wantFP)
	}
	if st.Emitted != len(modes) || st.Bases < int64(len(modes)) || st.Pivots <= 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.FirstModeSeconds <= 0 {
		t.Fatalf("FirstModeSeconds %v not recorded", st.FirstModeSeconds)
	}
	t.Logf("toy: %d modes, %d bases, %d pivots, frontier peak %d",
		st.Emitted, st.Bases, st.Pivots, st.PeakFrontier)
}

// TestGenerateSynthGridMatchesSerial sweeps the differential grid:
// exhaustive on-demand generation must fingerprint-match the serial
// engine at every point, reversible fractions included.
func TestGenerateSynthGridMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("exact ranked enumeration on the synth grid; skipped with -short")
	}
	points := []synth.Params{
		{Layers: 2, Width: 2, CrossLinks: 1, ReversibleFraction: 0, MaxCoef: 2, Seed: 7},
		{Layers: 3, Width: 2, CrossLinks: 2, ReversibleFraction: 0.3, MaxCoef: 2, Seed: 8},
		{Layers: 3, Width: 3, CrossLinks: 3, ReversibleFraction: 0.5, MaxCoef: 2, Seed: 9},
		{Layers: 4, Width: 3, CrossLinks: 2, ReversibleFraction: 1, MaxCoef: 2, Seed: 10},
		{Layers: 4, Width: 4, CrossLinks: 6, ReversibleFraction: 0.25, MaxCoef: 2, Seed: 1}, // efmgen -seed 1: 66 modes
	}
	for _, pt := range points {
		n, err := synth.Network(pt)
		if err != nil {
			t.Fatal(err)
		}
		red := reducedNet(t, n)
		ref, wantFP := serialSupports(t, red)
		modes, st := generateAll(t, red, Options{})
		if len(modes) != len(ref) {
			t.Errorf("seed %d: streamed %d modes, reference has %d", pt.Seed, len(modes), len(ref))
			continue
		}
		assertMembers(t, red, modes, ref)
		if fp := fingerprintOf(modes); fp != wantFP {
			t.Errorf("seed %d: fingerprint %016x, want %016x", pt.Seed, fp, wantFP)
			continue
		}
		t.Logf("seed %d: %d modes, %d bases, %d pivots", pt.Seed, st.Emitted, st.Bases, st.Pivots)
	}
}

// TestGenerateRankedOrder: with a genuine objective the stream's exact
// values must be nondecreasing — the ranking guarantee, not just a bias.
func TestGenerateRankedOrder(t *testing.T) {
	red := reducedNet(t, model.Builtin("toy"))
	q := red.N.Cols()
	obj := make([]*big.Rat, q)
	for j := 0; j < q; j++ {
		obj[j] = big.NewRat(int64(j%5)+1, 3)
	}
	modes, st := generateAll(t, red, Options{Objective: obj})
	if !st.Exhausted || len(modes) == 0 {
		t.Fatalf("expected exhaustive non-empty stream, got %d modes, %+v", len(modes), st)
	}
	for i := 1; i < len(modes); i++ {
		if modes[i].Value.Cmp(modes[i-1].Value) < 0 {
			t.Fatalf("rank %d value %s < rank %d value %s",
				modes[i].Rank, modes[i].Value.RatString(),
				modes[i-1].Rank, modes[i-1].Value.RatString())
		}
	}
}

// TestGeneratePrefixAndDeterminism: a k-limited run is exactly the first
// k entries of the exhaustive stream, and two identical runs produce the
// identical sequence (the tie-break is total, so the stream is a pure
// function of the input).
func TestGeneratePrefixAndDeterminism(t *testing.T) {
	red := reducedNet(t, model.Builtin("toy"))
	q := red.N.Cols()
	obj := make([]*big.Rat, q)
	for j := 0; j < q; j++ {
		obj[j] = big.NewRat(int64(j)+1, 2)
	}
	full, _ := generateAll(t, red, Options{Objective: obj})
	again, _ := generateAll(t, red, Options{Objective: obj})
	if len(full) != len(again) {
		t.Fatalf("rerun streamed %d modes, first run %d", len(again), len(full))
	}
	for i := range full {
		if !full[i].Support.Equal(again[i].Support) || full[i].Value.Cmp(again[i].Value) != 0 {
			t.Fatalf("rerun diverged at rank %d", i+1)
		}
	}
	k := 3
	if k > len(full) {
		k = len(full)
	}
	prefix, st := generateAll(t, red, Options{Objective: obj, MaxModes: k})
	if len(prefix) != k {
		t.Fatalf("k=%d run streamed %d modes", k, len(prefix))
	}
	if st.Exhausted {
		t.Fatal("k-limited run reported Exhausted")
	}
	for i := 0; i < k; i++ {
		if !prefix[i].Support.Equal(full[i].Support) {
			t.Fatalf("k-limited stream diverged from exhaustive prefix at rank %d", i+1)
		}
	}
}

// TestGenerateInfeasibleCone pins the zero-EFM corner: N = [1 1] with
// both reactions irreversible admits no nonzero non-negative flux; the
// generator must report a clean exhausted empty stream.
func TestGenerateInfeasibleCone(t *testing.T) {
	N := ratmat.FromInts([][]int64{{1, 1}})
	st, err := Generate(N, []bool{false, false}, Options{}, func(Mode) {
		t.Fatal("infeasible cone emitted a mode")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Exhausted || st.Emitted != 0 {
		t.Fatalf("infeasible cone: %+v", st)
	}
}

// TestGenerateCancelPreClosed: a pre-tripped cancel channel aborts with
// core.ErrCanceled before any mode is streamed.
func TestGenerateCancelPreClosed(t *testing.T) {
	red := reducedNet(t, model.Builtin("toy"))
	cancel := make(chan struct{})
	close(cancel)
	_, err := Generate(red.N, red.Reversibilities(), Options{Cancel: cancel}, func(Mode) {
		t.Fatal("canceled run emitted a mode")
	})
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err %v, want core.ErrCanceled", err)
	}
}

// TestGenerateObjectiveLengthMismatch: a wrong-length objective is an
// error, not a silent truncation.
func TestGenerateObjectiveLengthMismatch(t *testing.T) {
	red := reducedNet(t, model.Builtin("toy"))
	_, err := Generate(red.N, red.Reversibilities(), Options{
		Objective: []*big.Rat{big.NewRat(1, 1)},
	}, func(Mode) {})
	if err == nil {
		t.Fatal("length-mismatched objective was accepted")
	}
}
