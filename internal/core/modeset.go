// Package core implements the Nullspace Algorithm (Algorithm 1 of the
// paper): iterative construction of the elementary flux modes of a
// metabolic network from an initial kernel basis, by pairwise convex
// combination of columns, an algebraic rank test for elementarity,
// duplicate removal, and the negative-column rule for irreversible
// reactions.
//
// Columns ("modes") are stored in flat arrays: a bit set carrying the
// zero/non-zero support over all q permuted reactions, the numeric tail
// over the not-yet-processed rows, and the numeric values of already
// processed *reversible* rows. Keeping reversible-row values numeric
// (rather than binary) makes support bookkeeping exact even when a
// combination cancels in a previously processed reversible row; processed
// irreversible rows never cancel (all surviving values are non-negative
// and combination weights are positive), so bits suffice there.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"elmocomp/internal/bitset"
)

// ModeSet is a dense, append-only collection of modes sharing the same
// iteration state (tail window and processed-reversible row list). The
// zero value is not usable; construct with NewModeSet.
type ModeSet struct {
	q        int   // total (permuted) reactions == bit width
	words    int   // bit words per mode
	firstRow int   // permuted row index of tail element 0
	revRows  []int // permuted row indices of stored reversible values
	n        int   // number of modes
	bits     []uint64
	vals     []float64 // per mode: tailLen values then len(revRows) values
}

// NewModeSet returns an empty set for q reactions whose tails start at
// permuted row firstRow and whose reversible-value slots cover revRows.
func NewModeSet(q, firstRow int, revRows []int) *ModeSet {
	if firstRow < 0 || firstRow > q {
		panic(fmt.Sprintf("core: firstRow %d out of [0,%d]", firstRow, q))
	}
	return &ModeSet{
		q:        q,
		words:    (q + 63) / 64,
		firstRow: firstRow,
		revRows:  append([]int(nil), revRows...),
	}
}

// Q returns the reaction count (bit width).
func (s *ModeSet) Q() int { return s.q }

// Len returns the number of modes.
func (s *ModeSet) Len() int { return s.n }

// TailLen returns the per-mode numeric tail length.
func (s *ModeSet) TailLen() int { return s.q - s.firstRow }

// FirstRow returns the permuted row index of tail element 0.
func (s *ModeSet) FirstRow() int { return s.firstRow }

// RevRows returns the permuted row indices of the stored
// processed-reversible values (shared storage; do not mutate).
func (s *ModeSet) RevRows() []int { return s.revRows }

// stride is the per-mode value count.
func (s *ModeSet) stride() int { return s.TailLen() + len(s.revRows) }

// BitsWords returns mode i's raw bit words (aliased).
func (s *ModeSet) BitsWords(i int) []uint64 {
	return s.bits[i*s.words : (i+1)*s.words]
}

// Tail returns mode i's numeric tail (aliased): values of permuted rows
// FirstRow()..q-1.
func (s *ModeSet) Tail(i int) []float64 {
	off := i * s.stride()
	return s.vals[off : off+s.TailLen()]
}

// RevVals returns mode i's processed-reversible values (aliased), one per
// entry of RevRows().
func (s *ModeSet) RevVals(i int) []float64 {
	off := i*s.stride() + s.TailLen()
	return s.vals[off : off+len(s.revRows)]
}

// Test reports whether mode i has non-zero flux on permuted reaction r.
func (s *ModeSet) Test(i, r int) bool {
	if r < 0 || r >= s.q {
		panic(fmt.Sprintf("core: reaction %d out of [0,%d)", r, s.q))
	}
	return s.bits[i*s.words+r/64]&(1<<uint(r%64)) != 0
}

// Support returns mode i's support as a fresh bitset.Set.
func (s *ModeSet) Support(i int) bitset.Set {
	b := bitset.New(s.q)
	w := s.BitsWords(i)
	for k := 0; k < s.q; k++ {
		if w[k/64]&(1<<uint(k%64)) != 0 {
			b.Set(k)
		}
	}
	return b
}

// SupportIndices appends the permuted reaction indices with non-zero flux
// in mode i to dst.
func (s *ModeSet) SupportIndices(i int, dst []int) []int {
	w := s.BitsWords(i)
	for wi, word := range w {
		for word != 0 {
			b := trailingZeros(word)
			dst = append(dst, wi*64+b)
			word &= word - 1
		}
	}
	return dst
}

// SupportSize returns popcount of mode i's support.
func (s *ModeSet) SupportSize(i int) int {
	c := 0
	for _, w := range s.BitsWords(i) {
		c += popcount(w)
	}
	return c
}

// Grow reserves capacity for at least extra more modes.
func (s *ModeSet) Grow(extra int) {
	needBits := (s.n + extra) * s.words
	if cap(s.bits) < needBits {
		nb := make([]uint64, len(s.bits), needBits)
		copy(nb, s.bits)
		s.bits = nb
	}
	needVals := (s.n + extra) * s.stride()
	if cap(s.vals) < needVals {
		nv := make([]float64, len(s.vals), needVals)
		copy(nv, s.vals)
		s.vals = nv
	}
}

// appendRaw adds one mode and returns its index; the caller fills the
// returned slices. Bit words come back zeroed; value slots are returned
// as-is because every append path overwrites the full stride.
func (s *ModeSet) appendRaw() (idx int, bits []uint64, vals []float64) {
	idx = s.n
	s.n++
	if nb := s.n * s.words; cap(s.bits) >= nb {
		s.bits = s.bits[:nb]
		clear(s.bits[idx*s.words : nb])
	} else {
		s.bits = append(s.bits, make([]uint64, s.words)...)
	}
	if nv := s.n * s.stride(); cap(s.vals) >= nv {
		s.vals = s.vals[:nv]
	} else {
		s.vals = append(s.vals, make([]float64, s.stride())...)
	}
	return idx, s.bits[idx*s.words:], s.vals[idx*s.stride():]
}

// Reset empties the set in place, adopting a new layout while keeping the
// allocated bit and value storage. It is the allocation-free counterpart
// of NewModeSet, used by the worker pool to recycle candidate sets across
// rows.
func (s *ModeSet) Reset(q, firstRow int, revRows []int) {
	if firstRow < 0 || firstRow > q {
		panic(fmt.Sprintf("core: firstRow %d out of [0,%d]", firstRow, q))
	}
	s.q = q
	s.words = (q + 63) / 64
	s.firstRow = firstRow
	s.revRows = append(s.revRows[:0], revRows...)
	s.n = 0
	s.bits = s.bits[:0]
	s.vals = s.vals[:0]
}

// view returns a set that aliases modes [lo, hi) of s, for reading only:
// its capacity ends where it does, so an append to it could not reach
// s's later modes, but s must not be reset or appended to while the view
// is in use.
func (s *ModeSet) view(lo, hi int) *ModeSet {
	v := *s
	v.n = hi - lo
	v.bits = s.bits[lo*s.words : hi*s.words : hi*s.words]
	v.vals = s.vals[lo*s.stride() : hi*s.stride() : hi*s.stride()]
	return &v
}

// AppendMode adds a mode given its tail and reversible values, deriving
// tail/rev bits from the values with tolerance tol and taking prefix bits
// (rows < FirstRow excluding RevRows) from prefix. prefix may be nil for
// an empty prefix. Values are stored as given (callers normalize first).
func (s *ModeSet) AppendMode(prefix []uint64, tail, rev []float64, tol float64) int {
	if len(tail) != s.TailLen() || len(rev) != len(s.revRows) {
		panic("core: AppendMode length mismatch")
	}
	idx, bits, vals := s.appendRaw()
	if prefix != nil {
		copy(bits[:s.words], prefix)
	}
	copy(vals[:len(tail)], tail)
	copy(vals[len(tail):s.stride()], rev)
	// Tail bits override whatever the prefix carried in that range.
	for j, v := range tail {
		r := s.firstRow + j
		setBit(bits, r, abs(v) > tol)
	}
	for j, v := range rev {
		setBit(bits, s.revRows[j], abs(v) > tol)
	}
	return idx
}

// truncateLast removes the most recently appended mode (rollback for a
// rejected candidate).
func (s *ModeSet) truncateLast() {
	if s.n == 0 {
		panic("core: truncateLast on empty set")
	}
	s.n--
	s.bits = s.bits[:s.n*s.words]
	s.vals = s.vals[:s.n*s.stride()]
}

// appendShifted copies mode i of src — whose layout must be one iteration
// behind (FirstRow == s.FirstRow-1) — into s: the processed tail element
// is dropped, and if the processed row was reversible its value moves
// into the new reversible-value slot. Bits are copied verbatim (they
// already reflect the mode's support, including the processed row).
func (s *ModeSet) appendShifted(src *ModeSet, i int, reversible bool) int {
	if src.firstRow != s.firstRow-1 {
		panic("core: appendShifted layout mismatch")
	}
	wantRev := len(src.revRows)
	if reversible {
		wantRev++
	}
	if len(s.revRows) != wantRev {
		panic("core: appendShifted reversible slots mismatch")
	}
	idx, bits, vals := s.appendRaw()
	copy(bits[:s.words], src.BitsWords(i))
	srcTail := src.Tail(i)
	copy(vals[:s.TailLen()], srcTail[1:])
	copy(vals[s.TailLen():s.stride()], src.RevVals(i))
	if reversible {
		vals[s.stride()-1] = srcTail[0]
	}
	return idx
}

// CopyModeFrom appends mode i of src (which must have identical layout).
func (s *ModeSet) CopyModeFrom(src *ModeSet, i int) int {
	if src.q != s.q || src.firstRow != s.firstRow || len(src.revRows) != len(s.revRows) {
		panic("core: CopyModeFrom layout mismatch")
	}
	idx, bits, vals := s.appendRaw()
	copy(bits[:s.words], src.BitsWords(i))
	st := s.stride()
	copy(vals[:st], src.vals[i*st:(i+1)*st])
	return idx
}

// SameSupport reports whether modes i and j have identical supports.
func (s *ModeSet) SameSupport(i, j int) bool {
	wi, wj := s.BitsWords(i), s.BitsWords(j)
	for k := range wi {
		if wi[k] != wj[k] {
			return false
		}
	}
	return true
}

// CompareSupport lexicographically compares supports of modes i and j
// (most significant word first).
func (s *ModeSet) CompareSupport(i, j int) int {
	wi, wj := s.BitsWords(i), s.BitsWords(j)
	for k := len(wi) - 1; k >= 0; k-- {
		switch {
		case wi[k] < wj[k]:
			return -1
		case wi[k] > wj[k]:
			return 1
		}
	}
	return 0
}

// MemoryBytes estimates the resident size of the set's payload.
func (s *ModeSet) MemoryBytes() int64 {
	return int64(len(s.bits))*8 + int64(len(s.vals))*8
}

// Fingerprint returns an order- and content-sensitive 64-bit hash of
// the set: layout, every mode's support words, and every numeric value
// (by IEEE-754 bit pattern), folded with FNV-1a. Replicas of a
// deterministic run hash identically; any divergence in membership,
// order, support or value flips the fingerprint with overwhelming
// probability. The parallel driver compares replica fingerprints, not
// just lengths, to enforce Algorithm 2's replication invariant.
func (s *ModeSet) Fingerprint() uint64 {
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
	mix(uint64(s.q))
	mix(uint64(s.firstRow))
	mix(uint64(s.n))
	mix(uint64(len(s.revRows)))
	for _, r := range s.revRows {
		mix(uint64(r))
	}
	for _, w := range s.bits[:s.n*s.words] {
		mix(w)
	}
	for _, v := range s.vals[:s.n*s.stride()] {
		mix(math.Float64bits(v))
	}
	return h
}

func setBit(words []uint64, r int, on bool) {
	if on {
		words[r/64] |= 1 << uint(r%64)
	} else {
		words[r/64] &^= 1 << uint(r%64)
	}
}

func abs(v float64) float64 { return math.Abs(v) }

func popcount(w uint64) int { return bits.OnesCount64(w) }

func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }
