package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The mode-set byte stream starts with a fixed magic and a format
// version. The payload used to be distinguishable from garbage only by
// length arithmetic; now that encoded sets outlive a single collective
// exchange — the job service persists them in its content-addressed
// result cache — a truncated file, a foreign blob, or a payload written
// by a future incompatible build must fail loudly at the header, not
// decode into plausible nonsense. The cluster wire path carries exactly
// this format too, so the 8 header bytes are counted in the payload
// (GroupStats.Bytes) and wire (GroupStats.WireBytes) accounting like
// every other payload byte.
const (
	// CodecMagic is the little-endian uint32 spelling "EFMS".
	CodecMagic = uint32('E') | uint32('F')<<8 | uint32('M')<<16 | uint32('S')<<24
	// CodecVersion is the current mode-set format version. Decoders
	// reject newer versions instead of misreading them.
	CodecVersion = 1
	// codecHeaderLen is the magic+version preamble size in bytes.
	codecHeaderLen = 8
)

// Encode serializes the mode set into a compact byte stream (little
// endian): magic, version, header (q, firstRow, revRows, n) followed by
// the flat bit words and float64 values. This is both the body of the
// Communicate&Merge payload (Deal.Encode) — candidate sets travel between
// compute nodes in exactly this form, so communication volume is
// measured faithfully — and the storage format of the job service's
// content-addressed result cache.
func (s *ModeSet) Encode() []byte {
	return s.encodeRuns(0, []*ModeSet{s})
}

// encodeRuns returns head zero bytes followed by the Encode form of the
// concatenation of runs — sets with s's layout — written without
// building the concatenation: the header from s, then every run's bit
// words, then every run's values.
func (s *ModeSet) encodeRuns(head int, runs []*ModeSet) []byte {
	n := 0
	for _, r := range runs {
		n += r.n
	}
	out := make([]byte, head+codecHeaderLen+4*4+4*len(s.revRows)+n*(s.words+s.stride())*8)
	o := head
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(out[o:], v)
		o += 4
	}
	put32(CodecMagic)
	put32(CodecVersion)
	put32(uint32(s.q))
	put32(uint32(s.firstRow))
	put32(uint32(len(s.revRows)))
	put32(uint32(n))
	for _, r := range s.revRows {
		put32(uint32(r))
	}
	for _, r := range runs {
		for _, w := range r.bits {
			binary.LittleEndian.PutUint64(out[o:], w)
			o += 8
		}
	}
	for _, r := range runs {
		for _, v := range r.vals {
			binary.LittleEndian.PutUint64(out[o:], math.Float64bits(v))
			o += 8
		}
	}
	return out
}

// DecodeModeSet reconstructs a mode set from its Encode form.
func DecodeModeSet(data []byte) (*ModeSet, error) {
	if len(data) < codecHeaderLen {
		return nil, fmt.Errorf("core: mode-set payload truncated (%d bytes)", len(data))
	}
	if magic := binary.LittleEndian.Uint32(data); magic != CodecMagic {
		return nil, fmt.Errorf("core: not a mode-set payload (magic %#08x, want %#08x)", magic, CodecMagic)
	}
	if version := binary.LittleEndian.Uint32(data[4:]); version != CodecVersion {
		return nil, fmt.Errorf("core: unsupported mode-set format version %d (this build reads %d)", version, CodecVersion)
	}
	if len(data) < codecHeaderLen+16 {
		return nil, fmt.Errorf("core: mode-set payload truncated (%d bytes)", len(data))
	}
	o := codecHeaderLen
	get32 := func() int {
		v := int(int32(binary.LittleEndian.Uint32(data[o:])))
		o += 4
		return v
	}
	q := get32()
	firstRow := get32()
	nRev := get32()
	n := get32()
	if q < 0 || firstRow < 0 || firstRow > q || nRev < 0 || n < 0 {
		return nil, fmt.Errorf("core: corrupt mode-set header (q=%d firstRow=%d nRev=%d n=%d)", q, firstRow, nRev, n)
	}
	if len(data) < o+4*nRev {
		return nil, fmt.Errorf("core: mode-set payload truncated in revRows")
	}
	revRows := make([]int, nRev)
	for i := range revRows {
		revRows[i] = get32()
		if revRows[i] < 0 || revRows[i] >= q {
			return nil, fmt.Errorf("core: corrupt revRow %d", revRows[i])
		}
	}
	s := NewModeSet(q, firstRow, revRows)
	nBits := n * s.words
	nVals := n * s.stride()
	want := o + 8*nBits + 8*nVals
	if len(data) != want {
		return nil, fmt.Errorf("core: mode-set payload is %d bytes, want %d", len(data), want)
	}
	s.bits = make([]uint64, nBits)
	for i := range s.bits {
		s.bits[i] = binary.LittleEndian.Uint64(data[o:])
		o += 8
	}
	s.vals = make([]float64, nVals)
	for i := range s.vals {
		s.vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[o:]))
		o += 8
	}
	s.n = n
	return s, nil
}

// A Deal is one node's generated share of a row in a group of several
// (Pool.Deal), with what the node needs to exchange it and to lay every
// node's chunks down in chunk order.
type Deal struct {
	rank, size, chunks int
	layout             *ModeSet // a set of the candidates' layout; only the layout is read
	// runs holds the accepted candidates of the node's chunks, chunk
	// rank + i·size at index i, empty runs included.
	runs []*ModeSet
}

// Encode serializes the deal as the node's Communicate&Merge payload
// (little endian): the number of runs and each run's candidate count,
// then the Encode form of the runs' concatenation, written straight from
// the runs. The counts are there only so that every receiver can cut the
// body back into the node's chunks and interleave them with everyone
// else's in chunk order — the order compareRefs breaks support ties by.
func (d *Deal) Encode() []byte {
	out := d.layout.encodeRuns(4+4*len(d.runs), d.runs)
	binary.LittleEndian.PutUint32(out, uint32(len(d.runs)))
	for i, r := range d.runs {
		binary.LittleEndian.PutUint32(out[4+4*i:], uint32(r.n))
	}
	return out
}

// Gather lays down every node's chunk runs in chunk order 0…n−1, which is
// the serial generation order: the node's own runs as they are, every
// peer's decoded from its payload (payloads is indexed by rank; the
// node's own entry is not read). Empty runs are dropped. A peer payload
// that does not decode, that carries another layout, or whose counts
// disagree with the deal — the wrong number of runs for its rank, counts
// that are negative or do not sum to its body — is an error.
func (d *Deal) Gather(payloads [][]byte) ([]*ModeSet, error) {
	if len(payloads) != d.size {
		return nil, fmt.Errorf("core: exchange returned %d payloads for a group of %d", len(payloads), d.size)
	}
	byRank := make([][]*ModeSet, d.size)
	for r, pl := range payloads {
		if r == d.rank {
			byRank[r] = d.runs
			continue
		}
		runs, err := d.layout.decodeRuns(pl, dealtChunks(d.chunks, r, d.size))
		if err != nil {
			return nil, fmt.Errorf("core: node %d's candidates: %w", r, err)
		}
		byRank[r] = runs
	}
	sets := make([]*ModeSet, 0, d.chunks)
	for c := 0; c < d.chunks; c++ {
		if run := byRank[c%d.size][c/d.size]; run.n > 0 {
			sets = append(sets, run)
		}
	}
	return sets, nil
}

// decodeRuns decodes a Deal.Encode payload that must hold want runs of
// sets with s's layout, returning them as views into one decoded set.
func (s *ModeSet) decodeRuns(data []byte, want int) ([]*ModeSet, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("core: chunk-run payload truncated (%d bytes)", len(data))
	}
	if k := binary.LittleEndian.Uint32(data); k != uint32(want) {
		return nil, fmt.Errorf("core: chunk-run payload has %d runs, want %d", k, want)
	}
	head := 4 + 4*want
	if len(data) < head {
		return nil, fmt.Errorf("core: chunk-run payload truncated in its counts")
	}
	set, err := DecodeModeSet(data[head:])
	if err != nil {
		return nil, err
	}
	if set.q != s.q || set.firstRow != s.firstRow || !slices.Equal(set.revRows, s.revRows) {
		return nil, fmt.Errorf("core: chunk runs of layout (q=%d firstRow=%d revRows=%v), want (%d, %d, %v)",
			set.q, set.firstRow, set.revRows, s.q, s.firstRow, s.revRows)
	}
	runs := make([]*ModeSet, want)
	lo := 0
	for i := range runs {
		c := int(int32(binary.LittleEndian.Uint32(data[4+4*i:])))
		if c < 0 || c > set.n-lo {
			return nil, fmt.Errorf("core: chunk run %d claims %d candidates, %d left in the body", i, c, set.n-lo)
		}
		runs[i] = set.view(lo, lo+c)
		lo += c
	}
	if lo != set.n {
		return nil, fmt.Errorf("core: chunk runs count %d candidates, the body holds %d", lo, set.n)
	}
	return runs, nil
}
