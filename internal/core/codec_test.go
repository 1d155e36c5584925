package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"elmocomp/internal/model"
	"elmocomp/internal/nullspace"
	"elmocomp/internal/reduce"
)

func buildSet(t *testing.T) (*nullspace.Problem, *ModeSet) {
	t.Helper()
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	return p, InitialModeSet(p, 1e-9)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p, set := buildSet(t)
	// Run a couple of iterations so revRows and shifted tails exist.
	res, err := Run(p, Options{LastRow: p.Q() - 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*ModeSet{set, res.Modes} {
		data := s.Encode()
		got, err := DecodeModeSet(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != s.Len() || got.Q() != s.Q() || got.FirstRow() != s.FirstRow() {
			t.Fatalf("header mismatch: %d/%d/%d vs %d/%d/%d",
				got.Len(), got.Q(), got.FirstRow(), s.Len(), s.Q(), s.FirstRow())
		}
		if len(got.RevRows()) != len(s.RevRows()) {
			t.Fatalf("revRows mismatch")
		}
		for i := 0; i < s.Len(); i++ {
			if !got.SameSupport(i, i) || got.CompareSupport(i, i) != 0 {
				t.Fatal("self-comparison broken after decode")
			}
			gw, sw := got.BitsWords(i), s.BitsWords(i)
			for w := range sw {
				if gw[w] != sw[w] {
					t.Fatalf("bits differ at mode %d", i)
				}
			}
			gt, st := got.Tail(i), s.Tail(i)
			for j := range st {
				if gt[j] != st[j] {
					t.Fatalf("tail differs at mode %d", i)
				}
			}
			gr, sr := got.RevVals(i), s.RevVals(i)
			for j := range sr {
				if gr[j] != sr[j] {
					t.Fatalf("rev vals differ at mode %d", i)
				}
			}
		}
	}
}

func TestEncodeEmptySet(t *testing.T) {
	s := NewModeSet(10, 3, []int{1})
	got, err := DecodeModeSet(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Q() != 10 || got.FirstRow() != 3 || len(got.RevRows()) != 1 {
		t.Fatalf("empty set round trip: %+v", got)
	}
}

func TestDecodeCorruptPayloads(t *testing.T) {
	_, set := buildSet(t)
	data := set.Encode()
	corrupt := func(off int, b byte) []byte {
		c := append([]byte{}, data...)
		c[off] = b
		return c
	}
	cases := map[string][]byte{
		"nil":               nil,
		"truncated magic":   data[:3],
		"header only":       data[:8],
		"one byte short":    data[:len(data)-1],
		"one byte extra":    append(append([]byte{}, data...), 0),
		"bad magic":         corrupt(0, 'X'),
		"future version":    corrupt(4, 99),
		"version zero":      corrupt(4, 0),
		"negative q":        {data[0], data[1], data[2], data[3], data[4], data[5], data[6], data[7], 0xff, 0xff, 0xff, 0xff},
		"legacy headerless": data[8:],
	}
	for name, c := range cases {
		if _, err := DecodeModeSet(c); err == nil {
			t.Errorf("%s: corrupt payload accepted", name)
		}
	}
	// Negative n via the post-magic header (offset 8 starts q).
	bad := append([]byte{}, data...)
	for i := 20; i < 24; i++ { // n field
		bad[i] = 0xff
	}
	if _, err := DecodeModeSet(bad); err == nil {
		t.Error("negative n accepted")
	}
}

func TestEncodeHeader(t *testing.T) {
	_, set := buildSet(t)
	data := set.Encode()
	if len(data) < 8 {
		t.Fatalf("payload too short: %d", len(data))
	}
	if got := string(data[:4]); got != "EFMS" {
		t.Fatalf("magic = %q, want EFMS", got)
	}
	if v := uint32(data[4]) | uint32(data[5])<<8 | uint32(data[6])<<16 | uint32(data[7])<<24; v != CodecVersion {
		t.Fatalf("version = %d, want %d", v, CodecVersion)
	}
}

func TestModeSetAccessors(t *testing.T) {
	_, set := buildSet(t)
	if set.TailLen() != set.Q()-set.FirstRow() {
		t.Fatal("TailLen inconsistent")
	}
	if set.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes")
	}
	sup := set.Support(0)
	if sup.Count() != set.SupportSize(0) {
		t.Fatal("Support/SupportSize disagree")
	}
	idx := set.SupportIndices(0, nil)
	if len(idx) != sup.Count() {
		t.Fatal("SupportIndices count")
	}
	for _, r := range idx {
		if !set.Test(0, r) {
			t.Fatal("SupportIndices/Test disagree")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Test out of range did not panic")
		}
	}()
	set.Test(0, set.Q())
}

func TestGrowPreservesContents(t *testing.T) {
	_, set := buildSet(t)
	before := set.Support(0)
	set.Grow(1000)
	if !set.Support(0).Equal(before) {
		t.Fatal("Grow corrupted modes")
	}
}

// dealFixture is a two-node deal of the toy network's initial set cut
// into three runs, one of them empty, and its payload.
func dealFixture(t testing.TB) (*Deal, []byte) {
	t.Helper()
	red, err := reduce.Network(model.Toy(), reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nullspace.New(red.N, red.Reversibilities(), nullspace.Heuristics{})
	if err != nil {
		t.Fatal(err)
	}
	set := InitialModeSet(p, 1e-9)
	n := set.Len()
	d := &Deal{rank: 0, size: 2, chunks: 6, layout: NewModeSet(set.Q(), set.FirstRow(), set.RevRows()),
		runs: []*ModeSet{set.view(0, 1), set.view(1, 1), set.view(1, n)}}
	return d, d.Encode()
}

// TestDealRoundTrip: a node's payload decodes into its runs, and the
// body after the counts is exactly the Encode form of their
// concatenation.
func TestDealRoundTrip(t *testing.T) {
	d, data := dealFixture(t)
	runs, err := d.layout.decodeRuns(data, len(d.runs))
	if err != nil {
		t.Fatal(err)
	}
	whole := NewModeSet(d.layout.Q(), d.layout.FirstRow(), d.layout.RevRows())
	for i, r := range d.runs {
		requireIdenticalSets(t, fmt.Sprintf("run %d", i), r, runs[i])
		for j := 0; j < r.Len(); j++ {
			whole.CopyModeFrom(r, j)
		}
	}
	if body := data[4+4*len(d.runs):]; !bytes.Equal(body, whole.Encode()) {
		t.Fatal("the payload body is not the Encode form of the runs' concatenation")
	}
}

// TestDecodeRunsCorruptPayloads: a peer's payload is input from outside
// the node — every malformed one is an error, never a panic or a view
// that reaches past the decoded set.
func TestDecodeRunsCorruptPayloads(t *testing.T) {
	d, data := dealFixture(t)
	want := len(d.runs)
	withCount := func(i int, v uint32) []byte {
		c := append([]byte{}, data...)
		binary.LittleEndian.PutUint32(c[4+4*i:], v)
		return c
	}
	n0 := uint32(d.runs[0].Len())
	cases := []struct {
		name string
		data []byte
		want int
	}{
		{"empty", nil, want},
		{"truncated run count", data[:3], want},
		{"too many runs for the rank", data, want - 1},
		{"too few runs for the rank", data, want + 1},
		{"truncated counts", data[:4+4*want-2], want},
		{"negative count", withCount(0, 0xffffffff), want},
		{"overflowing count", withCount(0, 0x7fffffff), want},
		{"counts sum short of the body", withCount(0, n0-1), want},
		{"counts sum past the body", withCount(1, 1), want},
		{"truncated body", data[:len(data)-1], want},
		{"no body", data[:4+4*want], want},
		{"body of another layout", append(append([]byte{}, data[:4+4*want]...), NewModeSet(d.layout.Q(), d.layout.FirstRow()+1, nil).Encode()...), want},
	}
	for _, c := range cases {
		if _, err := d.layout.decodeRuns(c.data, c.want); err == nil {
			t.Errorf("%s: corrupt payload accepted", c.name)
		}
	}
	if _, err := d.Gather([][]byte{data}); err == nil {
		t.Error("Gather accepted one payload for a group of two")
	}
	if _, err := d.Gather([][]byte{nil, data[:len(data)-1]}); err == nil {
		t.Error("Gather accepted a truncated peer payload")
	}
}
