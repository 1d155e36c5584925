package core

import (
	"bytes"
	"testing"

	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
)

// fuzzSeeds returns real Encode outputs covering the format's corners:
// the empty set, the initial kernel set (no revRows), and a mid-run set
// with revRows and shifted tails.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{
		NewModeSet(10, 3, []int{1}).Encode(),
		InitialModeSet(p, 1e-9).Encode(),
	}
	res, err := Run(p, Options{LastRow: p.Q() - 1})
	if err != nil {
		tb.Fatal(err)
	}
	return append(seeds, res.Modes.Encode())
}

// FuzzDecodeModeSet hammers the cache/wire decoder with mutated
// payloads: it must never panic or over-allocate, and any payload it
// accepts must re-encode byte-identically (the decoder only admits
// canonical streams).
func FuzzDecodeModeSet(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeModeSet(data)
		if err != nil {
			return
		}
		back := s.Encode()
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted payload does not round-trip: %d bytes in, %d bytes out", len(data), len(back))
		}
		// Exercise the accessors the cache path relies on.
		for i := 0; i < s.Len(); i++ {
			_ = s.SupportSize(i)
			_ = s.SupportIndices(i, nil)
		}
		_ = s.Fingerprint()
	})
}

// FuzzDecodeRuns hammers the exchange's chunk-run decoder, which reads a
// peer's payload, with mutated payloads and run counts: it must never
// panic, the runs it accepts must tile the decoded body exactly, and
// their re-encoding must be the payload it was given.
func FuzzDecodeRuns(f *testing.F) {
	d, data := dealFixture(f)
	f.Add(data, uint8(len(d.runs)))
	empty := &Deal{layout: d.layout, runs: []*ModeSet{d.layout, d.layout}}
	f.Add(empty.Encode(), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, want uint8) {
		runs, err := d.layout.decodeRuns(data, int(want))
		if err != nil {
			return
		}
		back := (&Deal{layout: d.layout, runs: runs}).Encode()
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted payload does not round-trip: %d bytes in, %d bytes out", len(data), len(back))
		}
		for _, r := range runs {
			for i := 0; i < r.Len(); i++ {
				_ = r.SupportSize(i)
				_ = r.Tail(i)
			}
		}
	})
}
