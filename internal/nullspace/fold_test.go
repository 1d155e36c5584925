package nullspace_test

import (
	"testing"

	"elmocomp/internal/bitset"
	"elmocomp/internal/core"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
)

// permWords returns the support words over a problem's permuted columns
// with the given problem columns set.
func permWords(p *nullspace.Problem, cols ...int) []uint64 {
	inv := p.InvPerm()
	words := make([]uint64, (p.Q()+63)/64)
	for _, c := range cols {
		words[inv[c]/64] |= 1 << uint(inv[c]%64)
	}
	return words
}

// TestFold checks the one fold of a split problem back to the caller's
// columns on the network whose reversible cycle forces a split and on
// toy with every reversible reaction split: a forward/backward pair is
// futile, the ± orientations of a reversible support fold to one set
// that Distinct keeps once, and every mode a completed run folds to is
// an elementary mode of the caller's matrix in exact arithmetic. Every
// driver folds through this one function, so exact arithmetic is the
// independent check of its futile-pair rule.
func TestFold(t *testing.T) {
	cycle, err := model.ParseString("name revcycle\nin : Aext <=> A\nc1 : A <=> B\nc2 : B <=> C\nc3 : C <=> A\nout : B => Bext\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		net   *model.Network
		h     nullspace.Heuristics
		modes int
	}{
		{"offender split", cycle, nullspace.Heuristics{}, 3},
		{"toy split-all", model.Toy(), nullspace.Heuristics{SplitAllReversible: true}, 8},
	} {
		red, err := reduce.Network(tc.net, reduce.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := nullspace.New(red.N, red.Reversibilities(), tc.h)
		if err != nil {
			t.Fatal(err)
		}
		if p.Split == nil {
			t.Fatalf("%s: no reaction was split", tc.name)
		}
		var fwd, bwd []int // the split reactions' problem columns, pairwise
		for _, sc := range p.Split.SplitCols {
			for c, o := range p.Split.ColOf {
				if o == sc && p.Split.Bwd[c] {
					bwd = append(bwd, c)
				} else if o == sc {
					fwd = append(fwd, c)
				}
			}
		}
		for k, sc := range p.Split.SplitCols {
			if b, ok := p.Fold(permWords(p, fwd[k], bwd[k])); ok {
				t.Fatalf("%s: split pair of column %d folds to %v, want futile", tc.name, sc, b)
			}
			if b, ok := p.Fold(permWords(p, fwd[k])); !ok || !b.Equal(bitset.FromIndices(p.OrigQ(), sc)) {
				t.Fatalf("%s: forward copy of column %d folds to %v, %v", tc.name, sc, b, ok)
			}
		}
		plus, ok1 := p.Fold(permWords(p, fwd...))
		minus, ok2 := p.Fold(permWords(p, bwd...))
		if !ok1 || !ok2 || !plus.Equal(minus) || !plus.Equal(bitset.FromIndices(p.OrigQ(), p.Split.SplitCols...)) {
			t.Fatalf("%s: ± orientations fold to %v (%v) and %v (%v)", tc.name, plus, ok1, minus, ok2)
		}
		var d bitset.Distinct
		if !d.Add(plus) || d.Add(minus) {
			t.Fatalf("%s: Distinct did not keep exactly one of the ± orientations", tc.name)
		}

		run, err := core.Run(p, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		futile, distinct := 0, 0
		var modes bitset.Distinct
		for i := 0; i < run.Modes.Len(); i++ {
			b, ok := p.Fold(run.Modes.BitsWords(i))
			if !ok {
				futile++
				continue
			}
			if _, err := core.ExactFlux(red.N, red.Reversibilities(), b.Indices(nil)); err != nil {
				t.Fatalf("%s: mode %d folds to %v: %v", tc.name, i, b, err)
			}
			if modes.Add(b) {
				distinct++
			}
		}
		if futile != len(p.Split.SplitCols) {
			t.Fatalf("%s: %d futile two-cycles for %d split reactions", tc.name, futile, len(p.Split.SplitCols))
		}
		if distinct != tc.modes {
			t.Fatalf("%s: %d distinct folds, want %d modes", tc.name, distinct, tc.modes)
		}
	}

	toy, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(toy.N, toy.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range p.Perm {
		words := make([]uint64, (p.Q()+63)/64)
		words[i/64] |= 1 << uint(i%64)
		if b, ok := p.Fold(words); !ok || !b.Equal(bitset.FromIndices(p.Q(), c)) {
			t.Fatalf("unsplit toy: permuted column %d folds to %v (%v), want {%d}", i, b, ok, c)
		}
	}
}
