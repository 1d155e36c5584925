// Package bptree implements bit-pattern trees over fixed-width bit sets,
// the data structure Terzer & Stelling introduced to make the
// combinatorial (superset) adjacency test of the double description
// method scale ("Large scale computation of elementary flux modes with
// bit pattern trees", Bioinformatics 2008) — cited by the paper as the
// state of the art the Nullspace Algorithm lineage builds on.
//
// A tree stores the support patterns of the current mode matrix. The
// query HasSubsetOfExcluding(S, a, b) decides whether any stored pattern
// other than entries a and b is a subset of S: exactly the adjacency test
// "is some third ray's support contained in the union of the two parent
// supports". Inner nodes split on a bit position; a subtree whose common
// intersection mask has bits outside S cannot contain a subset of S and
// is pruned.
package bptree

import (
	"fmt"
	"math/bits"
)

// Builder accumulates patterns before constructing a Tree.
type Builder struct {
	width int
	words int
	pats  [][]uint64
}

// NewBuilder returns a builder for patterns of the given bit width.
func NewBuilder(width int) *Builder {
	if width <= 0 {
		panic("bptree: non-positive width")
	}
	return &Builder{width: width, words: (width + 63) / 64}
}

// Add appends a pattern (copied). Patterns are indexed by insertion
// order, starting at 0; the index is what queries exclude.
func (b *Builder) Add(words []uint64) {
	if len(words) != b.words {
		panic(fmt.Sprintf("bptree: pattern has %d words, want %d", len(words), b.words))
	}
	p := make([]uint64, b.words)
	copy(p, words)
	b.pats = append(b.pats, p)
}

// AddBorrowed appends a pattern without copying: the tree aliases the
// caller's slice, which must stay unchanged for the tree's lifetime.
// Used by the per-row tree construction, whose patterns alias an
// immutable mode set — copying every support per row would dominate the
// build cost that the hybrid prefilter is meant to amortize away.
func (b *Builder) AddBorrowed(words []uint64) {
	if len(words) != b.words {
		panic(fmt.Sprintf("bptree: pattern has %d words, want %d", len(words), b.words))
	}
	b.pats = append(b.pats, words)
}

// Len returns the number of patterns added so far.
func (b *Builder) Len() int { return len(b.pats) }

// Tree is an immutable bit-pattern tree. Safe for concurrent queries.
type Tree struct {
	width int
	words int
	pats  [][]uint64
	root  *node
}

type node struct {
	// common is the AND of all patterns below this node: if any bit of
	// common falls outside the query set, no pattern below can be a
	// subset and the subtree is pruned.
	common []uint64
	// leaf entries (pattern indices); nil for inner nodes.
	entries []int32
	// inner node: split bit; zero children have the bit clear.
	bit       int
	zero, one *node
}

const leafSize = 8

// Build constructs the tree. The builder may be reused afterwards.
func (b *Builder) Build() *Tree {
	t := &Tree{width: b.width, words: b.words, pats: b.pats}
	idx := make([]int32, len(b.pats))
	for i := range idx {
		idx[i] = int32(i)
	}
	t.root = t.build(idx, 0)
	b.pats = nil
	return t
}

// Len returns the number of stored patterns.
func (t *Tree) Len() int { return len(t.pats) }

func (t *Tree) build(idx []int32, depth int) *node {
	if len(idx) == 0 {
		return nil
	}
	n := &node{common: make([]uint64, t.words)}
	for w := range n.common {
		n.common[w] = ^uint64(0)
	}
	for _, i := range idx {
		for w, v := range t.pats[i] {
			n.common[w] &= v
		}
	}
	if len(idx) <= leafSize || depth >= t.width {
		n.entries = append([]int32(nil), idx...)
		return n
	}
	// Split on the most balanced bit (ones count closest to half),
	// ignoring bits where all or none agree. Counting iterates the set
	// bits of each pattern (supports are sparse relative to the width)
	// instead of probing every bit position of every pattern.
	counts := make([]int, t.words*64)
	for _, i := range idx {
		for w, word := range t.pats[i] {
			for word != 0 {
				counts[w*64+bits.TrailingZeros64(word)]++
				word &= word - 1
			}
		}
	}
	counts = counts[:t.width]
	best, bestScore := -1, len(idx)+1
	for bi := 0; bi < t.width; bi++ {
		c := counts[bi]
		if c == 0 || c == len(idx) {
			continue
		}
		score := c - len(idx)/2
		if score < 0 {
			score = -score
		}
		if score < bestScore {
			best, bestScore = bi, score
		}
	}
	if best < 0 {
		// All remaining patterns identical: leaf.
		n.entries = append([]int32(nil), idx...)
		return n
	}
	var zeros, ones []int32
	for _, i := range idx {
		if t.pats[i][best/64]&(1<<uint(best%64)) != 0 {
			ones = append(ones, i)
		} else {
			zeros = append(zeros, i)
		}
	}
	n.bit = best
	n.zero = t.build(zeros, depth+1)
	n.one = t.build(ones, depth+1)
	return n
}

// HasSubsetOfExcluding reports whether any stored pattern, other than the
// patterns at indices exclA and exclB, is a subset of s. Pass -1 to skip
// an exclusion.
func (t *Tree) HasSubsetOfExcluding(s []uint64, exclA, exclB int) bool {
	if len(s) != t.words {
		panic(fmt.Sprintf("bptree: query has %d words, want %d", len(s), t.words))
	}
	return t.search(t.root, s, int32(exclA), int32(exclB))
}

// HasSubsetOf reports whether any stored pattern is a subset of s.
func (t *Tree) HasSubsetOf(s []uint64) bool {
	return t.HasSubsetOfExcluding(s, -1, -1)
}

func (t *Tree) search(n *node, s []uint64, exclA, exclB int32) bool {
	if n == nil {
		return false
	}
	for w, c := range n.common {
		if c&^s[w] != 0 {
			return false // some bit shared by all patterns lies outside s
		}
	}
	if n.entries != nil {
		for _, i := range n.entries {
			if i == exclA || i == exclB {
				continue
			}
			if isSubset(t.pats[i], s) {
				return true
			}
		}
		return false
	}
	if t.search(n.zero, s, exclA, exclB) {
		return true
	}
	// Patterns with the split bit set can only be subsets if s has it.
	if s[n.bit/64]&(1<<uint(n.bit%64)) != 0 {
		return t.search(n.one, s, exclA, exclB)
	}
	return false
}

func isSubset(p, s []uint64) bool {
	for w, v := range p {
		if v&^s[w] != 0 {
			return false
		}
	}
	return true
}
