package core

import (
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

// TestSupportsCompressedRoundTrip: a distrib link may ship the EFMC
// compressed form; DecodeSupportList must accept it transparently and
// produce the same supports as the flat payload.
func TestSupportsCompressedRoundTrip(t *testing.T) {
	q := 100
	var supports []bitset.Set
	for i := 0; i < 200; i++ {
		b := bitset.New(q)
		b.Set(i % q)
		b.Set((i * 7) % q)
		supports = append(supports, b)
	}
	flat := EncodeSupportList(supports, q)
	set, err := DecodeModeSet(flat)
	if err != nil {
		t.Fatal(err)
	}
	comp := EncodeCompressed(set)
	got, err := DecodeSupportList(comp, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(supports) {
		t.Fatalf("decoded %d supports, want %d", len(got), len(supports))
	}
	for i := range got {
		if !got[i].Equal(supports[i]) {
			t.Fatalf("support %d differs through the compressed path", i)
		}
	}
	if _, err := DecodeSupportList(comp, q+1); err == nil {
		t.Fatal("column-count mismatch accepted through the compressed path")
	}
}
