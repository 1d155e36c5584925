// Package bitset provides a fixed-width bit set backed by 64-bit words.
//
// Bit sets are the workhorse of the Nullspace Algorithm: the zero/non-zero
// support pattern of every flux mode is kept as a bit set, the duplicate
// removal step sorts candidate modes by their binary representation, and the
// elementarity tests reduce to subset queries between supports. All hot-path
// operations (union, subset test, population count, lexicographic compare)
// are allocation-free.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a fixed-width bit set. The zero value is an empty set of width 0.
// Widths are fixed at construction; operations combining two sets require
// equal word lengths (enforced by panics, as mismatches are programming
// errors, never data errors).
type Set struct {
	words []uint64
	n     int // width in bits
}

const wordBits = 64

// New returns an empty bit set able to hold n bits.
func New(n int) Set {
	if n < 0 {
		panic("bitset: negative width")
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a bit set of width n with the given bits set.
func FromIndices(n int, idx ...int) Set {
	s := New(n)
	for _, i := range idx {
		s.Set(i)
	}
	return s
}

// Len returns the width of the set in bits.
func (s Set) Len() int { return s.n }

// Words returns the number of backing 64-bit words.
func (s Set) Words() int { return len(s.words) }

// Word returns the i-th backing word. It is exported for hash computation
// and radix-style partitioning by callers.
func (s Set) Word(i int) uint64 { return s.words[i] }

// Set sets bit i.
func (s Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set.
func (s Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w, n: s.n}
}

// Reset clears all bits.
func (s Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of set bits.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// OrInto sets dst = a | b. All three must have equal width. dst may alias a
// or b. This is the hot path of candidate generation (combining the supports
// of a positive and a negative mode).
func OrInto(dst, a, b Set) {
	if dst.n != a.n || a.n != b.n {
		panic("bitset: width mismatch")
	}
	for i := range dst.words {
		dst.words[i] = a.words[i] | b.words[i]
	}
}

// AndInto sets dst = a & b.
func AndInto(dst, a, b Set) {
	if dst.n != a.n || a.n != b.n {
		panic("bitset: width mismatch")
	}
	for i := range dst.words {
		dst.words[i] = a.words[i] & b.words[i]
	}
}

// AndNotInto sets dst = a &^ b.
func AndNotInto(dst, a, b Set) {
	if dst.n != a.n || a.n != b.n {
		panic("bitset: width mismatch")
	}
	for i := range dst.words {
		dst.words[i] = a.words[i] &^ b.words[i]
	}
}

// IsSubsetOf reports whether every bit of s is also set in t (s ⊆ t).
func (s Set) IsSubsetOf(t Set) bool {
	if s.n != t.n {
		panic("bitset: width mismatch")
	}
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one set bit.
func (s Set) Intersects(t Set) bool {
	if s.n != t.n {
		panic("bitset: width mismatch")
	}
	for i, w := range s.words {
		if w&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and t have the same width and bits.
func (s Set) Equal(t Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Compare lexicographically compares the word representations of s and t,
// most-significant word first, returning -1, 0, or +1. It induces a total
// order used for duplicate removal. Widths must match.
func (s Set) Compare(t Set) int {
	if s.n != t.n {
		panic("bitset: width mismatch")
	}
	for i := len(s.words) - 1; i >= 0; i-- {
		a, b := s.words[i], t.words[i]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
	}
	return 0
}

// Hash returns a 64-bit FNV-1a style hash of the set contents, suitable for
// map-based deduplication.
func (s Set) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range s.words {
		for b := 0; b < 8; b++ {
			h ^= (w >> (8 * uint(b))) & 0xff
			h *= prime
		}
	}
	return h
}

// Indices appends the indices of all set bits to dst and returns it.
func (s Set) Indices(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*wordBits+b)
			w &= w - 1
		}
	}
	return dst
}

// NextSet returns the index of the first set bit at or after i, or -1.
func (s Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// String renders the set as a 0/1 string, bit 0 first, e.g. "10110".
func (s Set) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.Test(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// MarshalBinary encodes the set as little-endian words prefixed by the width.
func (s Set) MarshalBinary() ([]byte, error) {
	out := make([]byte, 4+8*len(s.words))
	putUint32(out, uint32(s.n))
	for i, w := range s.words {
		putUint64(out[4+8*i:], w)
	}
	return out, nil
}

// UnmarshalBinary decodes a set encoded by MarshalBinary.
func (s *Set) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("bitset: truncated header")
	}
	n := int(getUint32(data))
	want := (n + wordBits - 1) / wordBits
	if len(data) != 4+8*want {
		return fmt.Errorf("bitset: length %d does not match width %d", len(data), n)
	}
	s.n = n
	s.words = make([]uint64, want)
	for i := range s.words {
		s.words[i] = getUint64(data[4+8*i:])
	}
	return nil
}

func putUint32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}

func getUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * uint(i))
	}
	return v
}
