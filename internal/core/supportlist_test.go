package core

import (
	"math/rand"
	"testing"

	"elmocomp/internal/bitset"
)

func TestSupportsCodecRoundTrip(t *testing.T) {
	q := 70 // spans two words
	var supports []bitset.Set
	for i := 0; i < 5; i++ {
		b := bitset.New(q)
		b.Set(i)
		b.Set(69 - i)
		supports = append(supports, b)
	}
	payload := EncodeSupportList(supports, q)
	got, err := DecodeSupportList(payload, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(supports) {
		t.Fatalf("decoded %d supports, want %d", len(got), len(supports))
	}
	for i := range got {
		if !got[i].Equal(supports[i]) {
			t.Fatalf("support %d differs: %s vs %s", i, got[i], supports[i])
		}
	}
	if _, err := DecodeSupportList(payload, q+1); err == nil {
		t.Fatal("column-count mismatch accepted")
	}
	if _, err := DecodeSupportList([]byte("garbage"), q); err == nil {
		t.Fatal("garbage payload accepted")
	}
}

// TestSupportsCompressedRefused: a support list has one format, flat
// EFMS. The spill store's compressed EFMC form of the same set is not a
// support list, wherever it comes from.
func TestSupportsCompressedRefused(t *testing.T) {
	q := 100
	var supports []bitset.Set
	for i := 0; i < 200; i++ {
		b := bitset.New(q)
		b.Set(i % q)
		b.Set((i * 7) % q)
		supports = append(supports, b)
	}
	set, err := DecodeModeSet(EncodeSupportList(supports, q))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSupportList(EncodeCompressed(set), q); err == nil {
		t.Fatal("compressed payload accepted as a support list")
	}
}

// TestSupportMatchesPerBit: ModeSet.Support, which copies a mode's words,
// is the set the mode's bits give one at a time, at widths below, at and
// one past a word and at two full words.
func TestSupportMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for _, q := range []int{56, 64, 65, 130} {
		set := NewModeSet(q, q, nil)
		for i := 0; i < 50; i++ {
			words := make([]uint64, set.words)
			for k := range words {
				words[k] = rng.Uint64() & rng.Uint64()
			}
			if r := q % 64; r != 0 {
				words[len(words)-1] &= 1<<uint(r) - 1
			}
			set.AppendMode(words, nil, nil, 0)
		}
		for i := 0; i < set.Len(); i++ {
			want := bitset.New(q)
			for r := 0; r < q; r++ {
				if set.Test(i, r) {
					want.Set(r)
				}
			}
			if got := set.Support(i); got.Len() != q || !got.Equal(want) {
				t.Fatalf("q=%d mode %d: Support %s, per bit %s", q, i, got, want)
			}
		}
	}
}
