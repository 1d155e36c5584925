package lp_test

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"elmocomp/internal/lp"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/ondemand"
	"elmocomp/internal/ratmat"
	"elmocomp/internal/reduce"
	"elmocomp/internal/revsearch"
	"elmocomp/internal/synth"
)

func reducedNet(tb testing.TB, n *model.Network) *reduce.Reduced {
	tb.Helper()
	red, err := reduce.Network(n, reduce.Options{MergeDuplicates: true})
	if err != nil {
		tb.Fatal(err)
	}
	return red
}

// coneProblem poses a network the way both exact families do: reduced,
// every reversible column split, sliced by the normalization plane.
func coneProblem(tb testing.TB, n *model.Network) *lp.Problem {
	tb.Helper()
	red := reducedNet(tb, n)
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{SplitAllReversible: true})
	if err != nil {
		tb.Fatal(err)
	}
	return lp.NormalizedCone(p.NExact)
}

func without(n *model.Network, names ...string) *model.Network {
	out := n.Clone()
	out.Reactions = out.Reactions[:0]
next:
	for _, r := range n.Reactions {
		for _, name := range names {
			if r.Name == name {
				continue next
			}
		}
		out.Reactions = append(out.Reactions, r)
	}
	return out
}

// yeastSub is the 33-mode sub-model of the cross-family tests;
// yeastExact the benchmark's yeast1-exact (its R22r variant).
func yeastSub() *model.Network {
	return without(model.Builtin("yeast1"), "R32r", "R36r", "R19r", "R17r", "R18r", "R20r", "R7r")
}

func yeastExact() *model.Network { return without(yeastSub(), "R22r") }

// TestSolveYeast1PivotsPinned holds the phase-1 path on the one built-in
// network whose rows are not integer (the biomass column is /5587 in 15
// reduced rows): the artificial of a row scaled by Lᵢ is seeded at Lᵢ,
// so both counts equal the big.Rat dictionary's. Its determinants run
// to ~200 bits — the dictionary must come back wide.
func TestSolveYeast1PivotsPinned(t *testing.T) {
	sol, err := lp.Solve(coneProblem(t, model.Builtin("yeast1")), lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := sol.Dict
	if sol.Status != lp.Optimal || sol.Phase1Pivots != 168 || sol.Pivots != 209 || d.NumRows() != 41 || d.NumVars() != 81 {
		t.Fatalf("status %v, pivots %d (phase 1: %d) on %dx%d; want optimal, 209 (168) on 41x81",
			sol.Status, sol.Pivots, sol.Phase1Pivots, d.NumRows(), d.NumVars())
	}
	if !sol.Phase1Wide || !d.Wide() {
		t.Fatalf("phase-1 wide %v, dictionary wide %v; want both", sol.Phase1Wide, d.Wide())
	}
	if !d.LexFeasible() {
		t.Fatal("phase-1 dictionary is not lex-feasible")
	}
}

// TestWidthBoundary pivots the dictionary of
//
//	x0 + K·x2 + K·x3 = K,   x1 + mult·x2 = mult
//
// from basis {0, 1} (det 1, the rows themselves) on (row 1, column 2):
// row 0 becomes (mult, −K, 0, K·mult | 0) under det mult, so K·mult is
// the largest magnitude stored. At 2^31 − 1 the dictionary stays
// narrow; at K = 2^31 the program's own rows reach the bound and it is
// wide from the start; at K = 2^30, mult = 2 it widens at the pivot.
// All agree with the big.Rat tableau pivoted here, and unpivoting the
// widened dictionary restores its narrow clone.
func TestWidthBoundary(t *testing.T) {
	cases := []struct {
		name             string
		k, mult          int64
		wideBefore, wide bool
	}{
		{"below", 1<<31 - 1, 1, false, false},
		{"below-scaled", 1<<30 - 1, 2, false, false},
		{"at-load", 1 << 31, 1, true, true},
		{"at-pivot", 1 << 30, 2, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows := [][]int64{{1, 0, c.k, c.k, c.k}, {0, 1, c.mult, 0, c.mult}}
			A := ratmat.New(2, 4)
			b := make([]*big.Rat, 2)
			ref := make([][]*big.Rat, 2)
			for i, row := range rows {
				for j, v := range row {
					ref[i] = append(ref[i], big.NewRat(v, 1))
					if j < 4 {
						A.SetInt(i, j, v)
					}
				}
				b[i] = big.NewRat(row[4], 1)
			}
			sol, err := lp.Solve(&lp.Problem{A: A, B: b}, lp.Options{})
			if err != nil || sol.Status != lp.Optimal {
				t.Fatalf("solve: %+v %v", sol, err)
			}
			d, err := sol.Dict.Rebuild([]int{0, 1})
			if err != nil {
				t.Fatal(err)
			}
			if d.Wide() != c.wideBefore {
				t.Fatalf("rebuilt dictionary wide = %v, want %v", d.Wide(), c.wideBefore)
			}
			before := d.Clone()
			d.Pivot(1, 2)
			if d.Wide() != c.wide {
				t.Fatalf("pivoted dictionary wide = %v, want %v", d.Wide(), c.wide)
			}
			// The same pivot on the rational tableau: row 1 over its
			// pivot element, then row 0 minus T[0][2] times it.
			f, piv := new(big.Rat).Set(ref[0][2]), new(big.Rat).Set(ref[1][2])
			for j := range ref[1] {
				ref[1][j].Quo(ref[1][j], piv)
				ref[0][j].Sub(ref[0][j], new(big.Rat).Mul(f, ref[1][j]))
			}
			for i := range ref {
				for j, want := range ref[i] {
					if got := d.Entry(i, j); got.Cmp(want) != 0 {
						t.Errorf("T[%d][%d] = %v, want %v", i, j, got, want)
					}
				}
			}
			d.Pivot(1, 1)
			if !d.Equal(before) || !before.Equal(d) {
				t.Fatal("unpivot across the widening did not restore the dictionary")
			}
		})
	}
}

// exactRun is everything the two exact families report about one
// network that must not depend on the dictionary width.
type exactRun struct {
	rev     [2]revsearch.Stats // workers 1 and 4
	revSet  [2][]byte
	od      ondemand.Stats
	values  []string
	support []string
}

// runBoth drives reverse search (1 and 4 workers) and a ranked
// on-demand stream of maxModes modes (0 exhausts) over one network, and
// checks Widened against what the bound in force implies.
func runBoth(t *testing.T, red *reduce.Reduced, maxModes int, allWide bool) exactRun {
	t.Helper()
	var out exactRun
	for i, workers := range []int{1, 4} {
		res, err := revsearch.Run(red.N, red.Reversibilities(), revsearch.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out.rev[i], out.revSet[i] = res.Stats, res.Modes.Encode()
	}
	obj := make([]*big.Rat, red.N.Cols())
	for j := range obj {
		obj[j] = big.NewRat(int64(j%5)-1, int64(j%3)+1)
	}
	var err error
	out.od, err = ondemand.Generate(red.N, red.Reversibilities(), ondemand.Options{Objective: obj, MaxModes: maxModes},
		func(m ondemand.Mode) {
			out.values = append(out.values, m.Value.RatString())
			out.support = append(out.support, fmt.Sprint(m.Support))
		})
	if err != nil {
		t.Fatal(err)
	}
	// Every dictionary: phase 1, the root, one per job or popped basis
	// (the on-demand root is popped without a rebuild).
	wantRev, wantOD := [2]int64{}, int64(0)
	if allWide {
		wantRev, wantOD = [2]int64{out.rev[0].Jobs + 2, out.rev[1].Jobs + 2}, out.od.Bases+1
	}
	if got := [2]int64{out.rev[0].Widened, out.rev[1].Widened}; got != wantRev || out.od.Widened != wantOD {
		t.Errorf("widened %v (revsearch) and %d (ondemand) dictionaries, want %v and %d", got, out.od.Widened, wantRev, wantOD)
	}
	for i := range out.rev {
		out.rev[i].Widened, out.rev[i].PeakBytes = 0, 0
	}
	out.od.Widened, out.od.FirstModeSeconds = 0, 0
	return out
}

// TestForcedWideMatchesNarrow is the proof that the two widths are one
// algorithm: with the bound at 0 every dictionary is big.Int from its
// first entry, and both families must then do exactly the work they do
// at the default bound — every counter but Widened and the byte
// estimate, every emitted value, every support.
func TestForcedWideMatchesNarrow(t *testing.T) {
	nets := []struct {
		name     string
		net      *model.Network
		maxModes int // on-demand stream length; 0 exhausts
	}{
		{"toy", model.Builtin("toy"), 0},
		{"yeast1-exact", yeastExact(), 5},
		{"yeast1-sub", yeastSub(), 5},
	}
	for _, pt := range []synth.Params{
		{Layers: 2, Width: 2, CrossLinks: 1, ReversibleFraction: 0, MaxCoef: 2, Seed: 7},
		{Layers: 3, Width: 2, CrossLinks: 2, ReversibleFraction: 0.4, MaxCoef: 2, Seed: 8},
		{Layers: 3, Width: 3, CrossLinks: 3, ReversibleFraction: 0.5, MaxCoef: 2, Seed: 9},
		{Layers: 3, Width: 2, CrossLinks: 3, ReversibleFraction: 1, MaxCoef: 2, Seed: 10},
	} {
		n, err := synth.Network(pt)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, struct {
			name     string
			net      *model.Network
			maxModes int
		}{fmt.Sprintf("seed%d", pt.Seed), n, 0})
	}
	for _, c := range nets {
		if testing.Short() && c.maxModes > 0 {
			continue // the yeast sub-models: seconds of big.Int pivoting
		}
		t.Run(c.name, func(t *testing.T) {
			red := reducedNet(t, c.net)
			narrow := runBoth(t, red, c.maxModes, false)
			restore := lp.SetNarrowBound(0)
			defer restore()
			wide := runBoth(t, red, c.maxModes, true)
			if !reflect.DeepEqual(narrow, wide) {
				t.Errorf("bound 0 and the default bound disagree:\n narrow %+v %+v\n wide   %+v %+v",
					narrow.rev, narrow.od, wide.rev, wide.od)
			}
		})
	}
}
