package dnc

import (
	"fmt"
	"slices"
	"testing"

	"elmocomp/internal/bitset"
	"elmocomp/internal/core"
	"elmocomp/internal/linalg"
	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/parallel"
	"elmocomp/internal/ratmat"
	"elmocomp/internal/reduce"
)

// yeastDDReduced is the benchmark's yeast1-dd-R19r input: Network I
// without R32r, R72 and R19r, reduced as every request path reduces it.
func yeastDDReduced(t *testing.T) *reduce.Reduced {
	t.Helper()
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
		t.Fatal(err)
	}
	return red
}

// classRun prepares class id of the partition and runs it to its
// Proposition-1 stop point on one node of one worker; ok is false for a
// class with a trivial kernel.
func classRun(t *testing.T, N *ratmat.Matrix, rev []bool, partition []int, id uint64) (pr *prepared, run *core.Result, ok bool) {
	t.Helper()
	pr, err := prepare(N, rev, partition, id)
	if err != nil {
		return nil, nil, false
	}
	copts := parallel.Options{Core: core.Options{Workers: 1, LastRow: pr.p.Q() - len(pr.nzfLocal)}}
	res, err := parallel.Run(pr.p, copts)
	if err != nil {
		t.Fatal(err)
	}
	return pr, res.Result, true
}

// mustRowsOf returns a prepared class's must-be-non-zero permuted rows.
func mustRowsOf(pr *prepared) []int {
	inv := pr.p.InvPerm()
	var rows []int
	for _, jj := range pr.nzfLocal {
		for c := 0; c < pr.p.Q(); c++ {
			if pr.p.OrigCol(c) == jj {
				rows = append(rows, inv[c])
			}
		}
	}
	return rows
}

// foldOne folds one class column to the input columns the way extract
// did before the sharded fold: Problem.Fold, then a re-map through keep.
func foldOne(p *nullspace.Problem, keep []int, fullQ int, words []uint64) (bitset.Set, bool) {
	fold, ok := p.Fold(words)
	if !ok {
		return bitset.Set{}, false
	}
	b := bitset.New(fullQ)
	for _, c := range fold.Indices(nil) {
		b.Set(keep[c])
	}
	return b, true
}

// extractReference is extract as it stood before the sharded fold: one
// pass over the columns in mode order — the must-row and sign filter,
// the rank test, foldOne — deduped through bitset.Distinct.
func extractReference(run *core.Result, pr *prepared, fullQ int) []bitset.Set {
	set, p := run.Modes, pr.p
	mustRows := mustRowsOf(pr)
	ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
	scratch := make([]int, 0, p.Q())
	var out []bitset.Set
	var seen bitset.Distinct
	for i := 0; i < set.Len(); i++ {
		ok := true
		for _, r := range mustRows {
			if !set.Test(i, r) || !p.Rev[r] && set.Tail(i)[r-set.FirstRow()] < 0 {
				ok = false
				break
			}
		}
		if !ok || !core.IsElementaryWS(p, set, i, 0, ws, scratch) {
			continue
		}
		if b, ok := foldOne(p, pr.keep, fullQ, set.BitsWords(i)); ok && seen.Add(b) {
			out = append(out, b)
		}
	}
	return out
}

// assertShardsMatch fails unless extract gives the one-shard list at
// every shard count, and that list is sorted, pairwise distinct and
// set-equal to extractReference.
func assertShardsMatch(t *testing.T, what string, run *core.Result, pr *prepared, fullQ int, counts []int) {
	t.Helper()
	one := extract(run, pr.p, pr.keep, pr.nzfLocal, fullQ, 1)
	for i := 1; i < len(one); i++ {
		if one[i-1].Compare(one[i]) >= 0 {
			t.Fatalf("%s: supports %d and %d are not in strictly increasing order", what, i-1, i)
		}
	}
	if got, want := keysOf(one), keysOf(extractReference(run, pr, fullQ)); got != want {
		t.Fatalf("%s: one shard extracts %d supports, not the reference's set", what, len(one))
	}
	for _, shards := range counts {
		got := extract(run, pr.p, pr.keep, pr.nzfLocal, fullQ, shards)
		if len(got) != len(one) {
			t.Fatalf("%s, %d shards: %d supports, one shard gives %d", what, shards, len(got), len(one))
		}
		for i := range got {
			if got[i].Len() != one[i].Len() || !got[i].Equal(one[i]) {
				t.Fatalf("%s, %d shards: support %d is %v, one shard's is %v", what, shards, i, got[i], one[i])
			}
		}
	}
}

// TestExtractShardsMatchOneShard: the sharded extract gives the
// one-shard list at 2, 3 and 7 shards on every class of yeast1-dd-R19r's
// Qsub 2 run, and at more shards than columns on the toy network's
// classes; each list is set-equal to the pre-shard extract. Shards run
// concurrently, so this runs under -race in CI.
func TestExtractShardsMatchOneShard(t *testing.T) {
	toy := toyReduced(t)
	part := colsOf(toy, "r6r", "r8r")
	for id := uint64(0); id < 4; id++ {
		pr, run, ok := classRun(t, toy.N, toy.Reversibilities(), part, id)
		if !ok {
			continue
		}
		assertShardsMatch(t, fmt.Sprintf("toy class %d", id), run, pr, toy.N.Cols(), []int{2, 3, 7, run.Modes.Len() + 5})
	}
	if testing.Short() {
		return
	}
	red := yeastDDReduced(t)
	N, rev := red.N, red.Reversibilities()
	part, err := AutoPartition(N, rev, 2)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 4; id++ {
		pr, run, ok := classRun(t, N, rev, part, id)
		if !ok {
			t.Fatalf("yeast1-dd-R19r class %d is infeasible", id)
		}
		assertShardsMatch(t, fmt.Sprintf("yeast1-dd-R19r class %d", id), run, pr, N.Cols(), []int{2, 3, 7})
	}
}

// TestExtractShardsDropPlanted hand-edits a class's columns so that
// every shard, at 1, 2, 3 and 7 shards, holds columns the filter must
// drop: a column zero on a must-be-non-zero row, a column negative on an
// irreversible one, and a non-elementary column (the sum of two class
// EFMs). The flipped EFM's support leaves the reference's list, and the
// other two fold to supports the class does not have, so a shard that
// skipped its filter would put a support on the list the reference drops.
func TestExtractShardsDropPlanted(t *testing.T) {
	if testing.Short() {
		t.Skip("yeast1-dd-R19r class")
	}
	red := yeastDDReduced(t)
	N, rev := red.N, red.Reversibilities()
	// R37 is irreversible, so its row's sign is checked; with R22r both
	// non-zero the class has no ± orientation twins.
	pr, run, ok := classRun(t, N, rev, colsOf(red, "R22r", "R37"), 3)
	if !ok {
		t.Fatal("class {R22r, R37} = 3 is infeasible")
	}
	p, set, first := pr.p, run.Modes, run.Modes.FirstRow()
	mustRows := mustRowsOf(pr)
	irr := slices.IndexFunc(mustRows, func(r int) bool { return !p.Rev[r] })
	if len(mustRows) != 2 || irr < 0 {
		t.Fatalf("must rows %v: want two, one irreversible", mustRows)
	}
	rIrr, rRev := mustRows[irr], mustRows[1-irr]

	want := extractReference(run, pr, N.Cols())
	ws := linalg.NewWorkspace(p.M()+2, p.M()+2)
	good := func(i int) bool {
		return set.Test(i, rIrr) && set.Test(i, rRev) && set.Tail(i)[rIrr-first] > 0 &&
			core.IsElementaryWS(p, set, i, 0, ws, nil)
	}
	// Every 16th EFM column is planted on: it is replaced by its copy
	// negated on the irreversible must row, and two columns follow it —
	// the EFM zeroed on the reversible must row, and the EFM plus the
	// last EFM of the same sign there.
	const every = 16
	planted := core.NewModeSet(set.Q(), first, set.RevRows())
	var flipped, zeroed, summed []int // planted column indices
	last := map[bool]int{}
	efms := 0
	for i := 0; i < set.Len(); i++ {
		pos := set.Tail(i)[rRev-first] > 0
		j, haveJ := last[pos]
		if !good(i) {
			planted.CopyModeFrom(set, i)
			continue
		}
		efms++
		last[pos] = i
		if efms%every != 0 || !haveJ {
			planted.CopyModeFrom(set, i)
			continue
		}
		k := planted.CopyModeFrom(set, i)
		planted.Tail(k)[rIrr-first] *= -1
		flipped = append(flipped, k)
		k = planted.CopyModeFrom(set, i)
		planted.Tail(k)[rRev-first] = 0
		planted.BitsWords(k)[rRev/64] &^= 1 << uint(rRev%64)
		zeroed = append(zeroed, k)
		k = planted.CopyModeFrom(set, i)
		for w, v := range set.BitsWords(j) {
			planted.BitsWords(k)[w] |= v
		}
		for r, v := range set.Tail(j) {
			planted.Tail(k)[r] += v
		}
		for r, v := range set.RevVals(j) {
			planted.RevVals(k)[r] += v
		}
		summed = append(summed, k)
	}
	edited := &core.Result{Problem: p, Modes: planted}
	ref := extractReference(edited, pr, N.Cols())
	if len(ref) != len(want)-len(flipped) {
		t.Fatalf("the reference keeps %d of the %d supports after %d flips, want %d", len(ref), len(want), len(flipped), len(want)-len(flipped))
	}
	have := map[string]bool{}
	for _, b := range want {
		have[b.String()] = true
	}
	for _, k := range slices.Concat(zeroed, summed) {
		if b, ok := foldOne(p, pr.keep, N.Cols(), planted.BitsWords(k)); !ok || have[b.String()] {
			t.Fatalf("planted column %d folds to a support the class has: it could not show a skipped filter", k)
		}
	}
	n := planted.Len()
	for _, shards := range []int{1, 2, 3, 7} {
		// core.Fold's shard k takes the columns [k·n/shards, (k+1)·n/shards).
		for k := 0; k < shards; k++ {
			lo, hi := k*n/shards, (k+1)*n/shards
			in := func(ks []int) bool { return slices.ContainsFunc(ks, func(c int) bool { return lo <= c && c < hi }) }
			if !in(flipped) || !in(zeroed) || !in(summed) {
				t.Fatalf("%d shards: shard %d [%d,%d) lacks a planted kind", shards, k, lo, hi)
			}
		}
		got := extract(edited, p, pr.keep, pr.nzfLocal, N.Cols(), shards)
		if g, w := keysOf(got), keysOf(ref); g != w {
			t.Fatalf("%d shards: %d supports, the reference keeps %d: a planted column survived", shards, len(got), len(ref))
		}
	}
	t.Logf("%d columns, %d EFMs; planted %d flipped, %d zeroed, %d summed", n, len(want), len(flipped), len(zeroed), len(summed))
}
