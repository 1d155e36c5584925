package core

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// compressedFuzzSeeds mirrors fuzzSeeds for the compressed codec,
// varying the block size so the fuzzer starts with single-mode blocks,
// partial tail blocks and the default geometry.
func compressedFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, enc := range fuzzSeeds(tb) {
		set, err := DecodeModeSet(enc)
		if err != nil {
			tb.Fatal(err)
		}
		for _, bs := range []int{1, 3, DefaultStoreBlock} {
			seeds = append(seeds, EncodeCompressedBlocks(set, bs))
		}
	}
	return seeds
}

// FuzzDecodeCompressed hammers the spill decoder with
// mutated payloads: it must never panic, fault or over-allocate, and
// any payload it accepts must describe a set whose canonical re-encoding
// decodes back to the same modes and is stable under a second encode.
// DEFLATE streams have no canonical byte form, so unlike the flat
// codec's fuzz target this one asserts decode∘encode idempotence rather
// than byte-identity with the mutated input.
func FuzzDecodeCompressed(f *testing.F) {
	for _, s := range compressedFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeCompressed(data)
		if err != nil {
			return
		}
		// Re-encode with the block size the accepted header declared.
		blockSize := int(binary.LittleEndian.Uint32(data[24:28]))
		enc := EncodeCompressedBlocks(s, blockSize)
		s2, err := DecodeCompressed(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		if s2.Len() != s.Len() || s2.Fingerprint() != s.Fingerprint() {
			t.Fatalf("re-encoded set differs: %d modes fp %x vs %d modes fp %x",
				s2.Len(), s2.Fingerprint(), s.Len(), s.Fingerprint())
		}
		if enc2 := EncodeCompressedBlocks(s2, blockSize); !bytes.Equal(enc2, enc) {
			t.Fatalf("encoding not idempotent: %d bytes then %d bytes", len(enc), len(enc2))
		}
	})
}
