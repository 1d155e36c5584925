package core

import (
	"fmt"
	"slices"
	"sync"

	"elmocomp/internal/bitset"
	"elmocomp/internal/nullspace"
)

// CanonicalSupports maps a completed run's modes to supports over the
// caller's reduced reaction columns: a split reaction's futile
// forward/backward pair is dropped, and the ± orientation duplicates of
// fully reversible modes (which the split network enumerates twice) are
// deduplicated. The returned supports are sorted lexicographically and
// pairwise distinct. The fold is sharded over the run's own pool workers
// (one shard for a Result built by hand, as revsearch's CoreResult is).
func CanonicalSupports(res *Result) []bitset.Set {
	f := Fold{Problem: res.Problem, Modes: res.Modes, Width: res.Problem.OrigQ()}
	return f.Supports(FoldShards(res.workers, res.Modes.Len()))
}

// foldShardMin is the fewest modes a fold shard is given, so that a
// small set folds on its caller's goroutine alone.
const foldShardMin = 1024

// FoldShards is the shard count for a fold of n modes by a run granted
// grant CPUs: never more than the grant, and one shard below
// foldShardMin modes a shard.
func FoldShards(grant, n int) int {
	return max(1, min(grant, n/foldShardMin))
}

// Fold maps a finished run's modes to supports over the caller's output
// columns, for Algorithms 1 and 2's result (CanonicalSupports) and for
// Algorithm 3's classes alike. Every mode goes through
// nullspace.Problem.FoldInto over one precomputed column map.
type Fold struct {
	Problem *nullspace.Problem
	Modes   *ModeSet
	// Width is the output column count. Out maps the caller's columns
	// (Problem.OrigCol's values) to output columns; nil is the identity.
	Width int
	Out   []int
	// Filter, when set, is called once per shard, on the shard's own
	// goroutine, and returns the shard's predicate over mode indices; a
	// mode it rejects is not folded. Each shard gets its own predicate,
	// so it may own scratch such as a rank test's workspace.
	Filter func() func(i int) bool
}

// Supports runs the fold over shards contiguous ranges of mode indices
// at once (at most one a mode, at least one): of n modes, shard k takes
// [k·n/shards, (k+1)·n/shards). Each shard filters, folds
// into one flat backing of its own, sorts and compacts its range; the
// parts are then merged and compacted. The list is sorted and pairwise
// distinct, and it is the same at every shard count.
func (f Fold) Supports(shards int) []bitset.Set {
	n := f.Modes.Len()
	shards = max(1, min(shards, n))
	cols := f.Problem.FoldCols()
	if f.Out != nil {
		for r, c := range cols {
			cols[r] = f.Out[c]
		}
	}
	parts := make([][]bitset.Set, shards)
	var wg sync.WaitGroup
	for k := 1; k < shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			parts[k] = f.shard(cols, k*n/shards, (k+1)*n/shards)
		}(k)
	}
	parts[0] = f.shard(cols, 0, n/shards)
	wg.Wait()
	return mergeSupports(parts)
}

// shard folds modes lo..hi-1 through cols into one backing and returns
// their supports sorted and compacted.
func (f Fold) shard(cols []int, lo, hi int) []bitset.Set {
	if hi == lo {
		return nil
	}
	var keep func(int) bool
	if f.Filter != nil {
		keep = f.Filter()
	}
	sets := bitset.Views(f.Width, make([]uint64, (hi-lo)*((f.Width+63)/64)))
	k := 0
	for i := lo; i < hi; i++ {
		if keep != nil && !keep(i) {
			continue
		}
		sets[k].Reset()
		if f.Problem.FoldInto(sets[k], f.Modes.BitsWords(i), cols) {
			k++
		}
	}
	if k == 0 {
		return nil
	}
	sets = sets[:k]
	// Compare is a total order and equal sets compare 0, so sorting puts
	// every duplicate next to its twin.
	slices.SortFunc(sets, bitset.Set.Compare)
	return slices.CompactFunc(sets, bitset.Set.Equal)
}

// mergeSupports merges sorted, compacted parts into one sorted list and
// drops the sets two parts share.
func mergeSupports(parts [][]bitset.Set) []bitset.Set {
	if len(parts) == 1 {
		return parts[0]
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]bitset.Set, 0, total)
	for {
		best := -1
		for k, p := range parts {
			if len(p) > 0 && (best < 0 || p[0].Compare(parts[best][0]) < 0) {
				best = k
			}
		}
		if best < 0 {
			return out
		}
		s := parts[best][0]
		parts[best] = parts[best][1:]
		if len(out) == 0 || !out[len(out)-1].Equal(s) {
			out = append(out, s)
		}
	}
}

// SupportsFingerprint folds a canonical support list into a 64-bit
// FNV-1a hash: length, then every set's width and words in order. Two
// drivers that computed the same EFM set in the same canonical order —
// serial, worker-pool, cluster and divide-and-conquer runs all sort
// supports with the same total comparator — hash identically; any
// difference in membership, order or width flips the fingerprint with
// overwhelming probability. This is the cross-driver analogue of
// ModeSet.Fingerprint, which is only comparable between replicas of one
// driver (it hashes permuted-space numeric payloads too).
func SupportsFingerprint(supports []bitset.Set) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(supports)))
	for _, b := range supports {
		mix(uint64(b.Len()))
		for w := 0; w < b.Words(); w++ {
			mix(b.Word(w))
		}
	}
	return h
}

// EncodeSupportList serializes a support list over q reduced columns
// into the flat EFMS byte stream: the Encode form of a set with one
// bit-only mode per support, in order. It is the one payload shape
// support lists take, in the job cache and on every link.
func EncodeSupportList(supports []bitset.Set, q int) []byte {
	set := NewModeSet(q, q, nil)
	set.Grow(len(supports))
	var words []uint64
	for _, b := range supports {
		if cap(words) < b.Words() {
			words = make([]uint64, b.Words())
		}
		words = words[:b.Words()]
		for w := range words {
			words[w] = b.Word(w)
		}
		set.AppendMode(words, nil, nil, 0)
	}
	return set.Encode()
}

// DecodeSupportList inverts EncodeSupportList, validating the payload
// against the expected column count.
func DecodeSupportList(payload []byte, q int) ([]bitset.Set, error) {
	set, err := DecodeModeSet(payload)
	if err != nil {
		return nil, err
	}
	if set.Q() != q {
		return nil, fmt.Errorf("core: supports span %d columns, want %d", set.Q(), q)
	}
	if set.FirstRow() != set.Q() || len(set.RevRows()) != 0 {
		return nil, fmt.Errorf("core: payload is an intermediate mode set, not a support list")
	}
	out := make([]bitset.Set, set.Len())
	for i := range out {
		out[i] = set.Support(i)
	}
	return out, nil
}
