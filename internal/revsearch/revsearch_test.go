package revsearch

import (
	"errors"
	"testing"
	"time"

	"elmocomp/internal/core"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/ratmat"
	"elmocomp/internal/reduce"
	"elmocomp/internal/synth"
)

// reducedNet parses and reduces a network for direct backend runs.
func reducedNet(t *testing.T, n *model.Network) *reduce.Reduced {
	t.Helper()
	red, err := reduce.Network(n, reduce.Options{MergeDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	return red
}

// serialFingerprint computes the double-description reference:
// canonical supports + fingerprint via the serial combinatorial engine
// on the same reduced network.
func serialFingerprint(t *testing.T, red *reduce.Reduced) (uint64, int) {
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
	return core.SupportsFingerprint(supports), len(supports)
}

func revsearchFingerprint(t *testing.T, red *reduce.Reduced, opts Options) (uint64, int, *Result) {
	t.Helper()
	res, err := Run(red.N, red.Reversibilities(), opts)
	if err != nil {
		t.Fatal(err)
	}
	supports := core.CanonicalSupports(res.CoreResult())
	return core.SupportsFingerprint(supports), len(supports), res
}

func TestRevsearchToyMatchesSerial(t *testing.T) {
	red := reducedNet(t, model.Builtin("toy"))
	wantFP, wantLen := serialFingerprint(t, red)
	gotFP, gotLen, res := revsearchFingerprint(t, red, Options{Workers: 1})
	if gotFP != wantFP || gotLen != wantLen {
		t.Fatalf("revsearch: %d EFMs fp %016x, serial: %d fp %016x", gotLen, gotFP, wantLen, wantFP)
	}
	if res.Stats.Bases == 0 || res.Stats.Vertices == 0 {
		t.Fatalf("empty stats: %+v", res.Stats)
	}
	t.Logf("toy: %d EFMs, %s", gotLen, res.Stats)
}

func TestRevsearchSynthGridMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("exact reverse search on the synth grid; skipped with -short")
	}
	points := []synth.Params{
		{Layers: 2, Width: 2, CrossLinks: 1, ReversibleFraction: 0, MaxCoef: 2, Seed: 7},
		{Layers: 3, Width: 2, CrossLinks: 2, ReversibleFraction: 0.3, MaxCoef: 2, Seed: 8},
		{Layers: 3, Width: 3, CrossLinks: 3, ReversibleFraction: 0.5, MaxCoef: 2, Seed: 9},
		{Layers: 4, Width: 3, CrossLinks: 2, ReversibleFraction: 1, MaxCoef: 2, Seed: 10},
	}
	for _, pt := range points {
		n, err := synth.Network(pt)
		if err != nil {
			t.Fatal(err)
		}
		red := reducedNet(t, n)
		wantFP, wantLen := serialFingerprint(t, red)
		gotFP, gotLen, res := revsearchFingerprint(t, red, Options{Workers: 1})
		if gotFP != wantFP || gotLen != wantLen {
			t.Errorf("seed %d: revsearch %d EFMs fp %016x, serial %d fp %016x",
				pt.Seed, gotLen, gotFP, wantLen, wantFP)
			continue
		}
		t.Logf("seed %d: %d EFMs, %s", pt.Seed, gotLen, res.Stats)
	}
}

// TestRevsearchInfeasibleCone pins the zero-EFM corner: N = [1 1] with
// both reactions irreversible has a one-dimensional kernel but no
// nonzero non-negative steady-state flux (the normalization slice is
// empty — 1^T lies in the stoichiometry row space). The enumerator must
// return the empty set, not an error, matching what the
// double-description engine computes on the same degenerate input.
func TestRevsearchInfeasibleCone(t *testing.T) {
	N := ratmat.FromInts([][]int64{{1, 1}})
	res, err := Run(N, []bool{false, false}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modes.Len() != 0 {
		t.Fatalf("infeasible cone produced %d modes", res.Modes.Len())
	}
	if res.Stats.Bases != 0 {
		t.Fatalf("infeasible cone visited %d bases", res.Stats.Bases)
	}
}

func TestRevsearchCancelPreClosed(t *testing.T) {
	red := reducedNet(t, model.Builtin("toy"))
	cancel := make(chan struct{})
	close(cancel)
	_, err := Run(red.N, red.Reversibilities(), Options{Workers: 1, Cancel: cancel})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-closed cancel returned %v, want ErrCanceled", err)
	}
}

// TestRevsearchStatsPinned holds every work counter to a recorded
// value: the traversal, its pivot accounting (Phase1Pivots = phase 1
// plus the m-pivot rebuild = lp's Solution.Pivots for a nil objective)
// and the job split are public numbers, and a change to the simplex
// underneath — a different dictionary, fraction-free pivoting — must
// not move them. Every tree here fits the default budget, so workers 1
// and 4 agree on Pivots and Jobs too.
func TestRevsearchStatsPinned(t *testing.T) {
	points := propertyPoints(t)
	cases := []struct {
		name string
		net  *model.Network
		want Stats
	}{
		{"toy", model.Builtin("toy"),
			Stats{Bases: 26, Vertices: 10, Pivots: 67, Phase1Pivots: 11, RootPivots: 1, Jobs: 1, MaxDepth: 6}},
		{"seed7", synthNet(t, points[0]),
			Stats{Bases: 15, Vertices: 5, Pivots: 46, Phase1Pivots: 12, RootPivots: 1, Jobs: 1, MaxDepth: 4}},
		{"seed8", synthNet(t, points[1]),
			Stats{Bases: 190, Vertices: 23, Pivots: 402, Phase1Pivots: 15, RootPivots: 3, Jobs: 1, MaxDepth: 9}},
		{"seed9", synthNet(t, points[2]),
			Stats{Bases: 500, Vertices: 32, Pivots: 1033, Phase1Pivots: 24, RootPivots: 2, Jobs: 1, MaxDepth: 9}},
		{"seed10", synthNet(t, points[3]),
			Stats{Bases: 911, Vertices: 100, Pivots: 1844, Phase1Pivots: 16, RootPivots: 2, Jobs: 1, MaxDepth: 12}},
	}
	for _, c := range cases {
		red := reducedNet(t, c.net)
		for _, workers := range []int{1, 4} {
			res, err := Run(red.N, red.Reversibilities(), Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			got := res.Stats
			got.PeakBytes = 0 // an estimate, not a work counter
			if got != c.want {
				t.Errorf("%s workers=%d:\n got  %+v\n want %+v", c.name, workers, got, c.want)
			}
		}
	}
}

func synthNet(t *testing.T, pt synth.Params) *model.Network {
	t.Helper()
	n, err := synth.Network(pt)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRevsearchCancelMidRunRace closes Cancel while four workers are
// mid-traversal on one-node jobs, at delays staggered in 100 µs steps
// from 0 to 6 ms so the close lands in phase 1, in the root walk and —
// the case that matters — deep in the tree (a full run takes ~80 ms,
// ~300 ms under the race detector, of which start-up is the first few).
// The run must end in ErrCanceled or (cancel lost the race) success; the
// point is the -race lane, which sees every walker's poll of the stop
// flag against fail()'s write.
func TestRevsearchCancelMidRunRace(t *testing.T) {
	red := reducedNet(t, synthNet(t, propertyPoints(t)[3]))
	for i := 0; i < 60; i++ {
		cancel := make(chan struct{})
		timer := time.AfterFunc(time.Duration(i)*100*time.Microsecond, func() { close(cancel) })
		_, err := Run(red.N, red.Reversibilities(), Options{Workers: 4, SubtreeBudget: 1, Cancel: cancel})
		timer.Stop()
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("delay step %d: %v, want ErrCanceled or success", i, err)
		}
	}
}
