package core

import (
	"fmt"
	"slices"

	"elmocomp/internal/bitset"
)

// CanonicalSupports maps a completed run's modes to supports over the
// caller's reduced reaction columns through the problem's Fold: a split
// reaction's futile forward/backward pair is dropped, and the ±
// orientation duplicates of fully reversible modes (which the split
// network enumerates twice) are deduplicated. The returned supports are
// sorted lexicographically and pairwise distinct.
func CanonicalSupports(res *Result) []bitset.Set {
	var out []bitset.Set
	for i := 0; i < res.Modes.Len(); i++ {
		if b, ok := res.Problem.Fold(res.Modes.BitsWords(i)); ok {
			out = append(out, b)
		}
	}
	// Compare is a total order and equal sets compare 0, so sorting puts
	// every duplicate next to its twin.
	slices.SortFunc(out, bitset.Set.Compare)
	return slices.CompactFunc(out, bitset.Set.Equal)
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
