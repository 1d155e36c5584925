// Package bptree implements bit-pattern trees over fixed-width bit sets,
// the data structure Terzer & Stelling introduced to make the
// combinatorial (superset) adjacency test of the double description
// method scale ("Large scale computation of elementary flux modes with
// bit pattern trees", Bioinformatics 2008) — cited by the paper as the
// state of the art the Nullspace Algorithm lineage builds on.
//
// A tree stores support patterns of the current mode matrix. Inner nodes
// split on a bit position and every node carries the AND of the patterns
// beneath it, which answers two questions about a whole subtree at once:
//
//   - HasSubsetOfExcluding(S, a, b): is any stored pattern other than
//     entries a and b a subset of S — the adjacency test "is some third
//     ray's support contained in the union of the two parent supports".
//     A subtree whose AND has bits outside S holds no subset of S.
//   - AppendUnionWithin(S, ...): which stored patterns P can still keep
//     |S ∪ P| under a bound — candidate generation's support pre-test.
//     Every union beneath a node contains S ∪ AND, so a subtree whose
//     S ∪ AND already breaks the bound is ruled out by its count alone.
package bptree

import (
	"fmt"
	"math/bits"
	"slices"
)

// Builder accumulates patterns before constructing a Tree.
type Builder struct {
	width int
	words int
	pats  []uint64 // words per pattern, in insertion order
}

// NewBuilder returns a builder for patterns of the given bit width.
func NewBuilder(width int) *Builder {
	if width <= 0 {
		panic("bptree: non-positive width")
	}
	return &Builder{width: width, words: (width + 63) / 64}
}

// Add appends a pattern (copied). Patterns are indexed by insertion
// order, starting at 0; the index is what queries exclude and report.
func (b *Builder) Add(words []uint64) {
	if len(words) != b.words {
		panic(fmt.Sprintf("bptree: pattern has %d words, want %d", len(words), b.words))
	}
	b.pats = append(b.pats, words...)
}

// Len returns the number of patterns added so far.
func (b *Builder) Len() int { return len(b.pats) / b.words }

// Build constructs the tree. The builder may be reused afterwards.
func (b *Builder) Build() *Tree {
	t := new(Tree)
	t.Rebuild(b.width, b.Len(), func(i int) []uint64 { return b.pats[i*b.words : (i+1)*b.words] })
	b.pats = b.pats[:0]
	return t
}

// Tree is a bit-pattern tree, immutable between Rebuild calls and safe
// for concurrent queries. The zero value is an empty tree of width 0 that
// only Rebuild makes usable.
//
// Storage is flat so a tree rebuilt once per row of the enumeration
// recycles it: pats holds the patterns, words each; perm holds the
// pattern indices arranged so that every subtree is one contiguous range;
// nodes are laid out in preorder (a node's zero child — split bit clear —
// follows it directly, its one child follows the zero subtree); and
// common holds words-per-node ANDs.
type Tree struct {
	width  int
	words  int
	pats   []uint64
	perm   []int32
	nodes  []node
	common []uint64
	counts []int // Rebuild's per-bit tally, kept for the next build
}

type node struct {
	// perm[lo:hi] are the patterns beneath this node, so hi-lo is the
	// subtree's pattern count.
	lo, hi int32
	// end is the index of the first node after this subtree: skipping to
	// it prunes the subtree, and a leaf is a node with end == index+1.
	end int32
}

const leafSize = 8

// Rebuild replaces the tree's contents with n patterns of the given bit
// width, pattern i being a copy of pat(i), and reuses the tree's
// storage, which it sizes for n up front: a tree that is rebuilt row
// after row for a growing mode set would otherwise pay for every
// doubling.
func (t *Tree) Rebuild(width, n int, pat func(i int) []uint64) {
	if width <= 0 {
		panic("bptree: non-positive width")
	}
	t.width, t.words = width, (width+63)/64
	t.pats = slices.Grow(t.pats[:0], n*t.words)
	t.perm = slices.Grow(t.perm[:0], n)
	for i := 0; i < n; i++ {
		p := pat(i)
		if len(p) != t.words {
			panic(fmt.Sprintf("bptree: pattern has %d words, want %d", len(p), t.words))
		}
		t.pats = append(t.pats, p...)
		t.perm = append(t.perm, int32(i))
	}
	// A leaf holds up to leafSize patterns and real trees average about
	// three per node; a build that needs more nodes than this grows.
	t.nodes = slices.Grow(t.nodes[:0], n/2+1)
	t.common = slices.Grow(t.common[:0], (n/2+1)*t.words)
	if cap(t.counts) < t.words*64 {
		t.counts = make([]int, t.words*64)
	}
	if n > 0 {
		t.build(0, int32(n), 0)
	}
}

// Len returns the number of stored patterns.
func (t *Tree) Len() int { return len(t.perm) }

// pattern returns stored pattern i.
func (t *Tree) pattern(i int32) []uint64 {
	return t.pats[int(i)*t.words : (int(i)+1)*t.words]
}

// build appends the subtree over perm[lo:hi] to the preorder layout.
func (t *Tree) build(lo, hi int32, depth int) {
	self := len(t.nodes)
	t.nodes = append(t.nodes, node{lo: lo, hi: hi, end: int32(self + 1)})
	base := len(t.common)
	for w := 0; w < t.words; w++ {
		t.common = append(t.common, ^uint64(0))
	}
	common := t.common[base : base+t.words]
	idx := t.perm[lo:hi]
	for _, i := range idx {
		for w, v := range t.pattern(i) {
			common[w] &= v
		}
	}
	if len(idx) <= leafSize || depth >= t.width {
		return
	}
	// Split on the most balanced bit (ones count closest to half),
	// ignoring bits where all or none agree. Counting iterates the set
	// bits of each pattern outside the common mask (supports are sparse
	// relative to the width) instead of probing every bit position of
	// every pattern.
	counts := t.counts[:t.words*64]
	clear(counts)
	for _, i := range idx {
		for w, word := range t.pattern(i) {
			word &^= common[w]
			for word != 0 {
				counts[w*64+bits.TrailingZeros64(word)]++
				word &= word - 1
			}
		}
	}
	best, bestScore := -1, len(idx)+1
	for bi, c := range counts[:t.width] {
		if c == 0 {
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
		return // all remaining patterns identical: leaf
	}
	// Partition in place: patterns with the split bit clear first.
	word, mask := best/64, uint64(1)<<uint(best%64)
	i, j := 0, len(idx)-1
	for i <= j {
		if t.pats[int(idx[i])*t.words+word]&mask == 0 {
			i++
		} else {
			idx[i], idx[j] = idx[j], idx[i]
			j--
		}
	}
	mid := lo + int32(i)
	t.build(lo, mid, depth+1)
	t.build(mid, hi, depth+1)
	t.nodes[self].end = int32(len(t.nodes))
}

// HasSubsetOfExcluding reports whether any stored pattern, other than the
// patterns at indices exclA and exclB, is a subset of s. Pass -1 to skip
// an exclusion.
func (t *Tree) HasSubsetOfExcluding(s []uint64, exclA, exclB int) bool {
	if len(s) != t.words {
		panic(fmt.Sprintf("bptree: query has %d words, want %d", len(s), t.words))
	}
	a, b := int32(exclA), int32(exclB)
	words := t.words
	for ni := 0; ni < len(t.nodes); {
		n := t.nodes[ni]
		// Some bit shared by all patterns beneath lies outside s: no
		// subset here. (A one child's AND carries its split bit, so the
		// same test skips it when s lacks that bit.)
		if !isSubset(t.common[ni*words:ni*words+words], s) {
			ni = int(n.end)
			continue
		}
		if int(n.end) == ni+1 {
			for _, i := range t.perm[n.lo:n.hi] {
				if i != a && i != b && isSubset(t.pattern(i), s) {
					return true
				}
			}
		}
		ni++
	}
	return false
}

// HasSubsetOf reports whether any stored pattern is a subset of s.
func (t *Tree) HasSubsetOf(s []uint64) bool {
	return t.HasSubsetOfExcluding(s, -1, -1)
}

// AppendUnionWithin sorts the stored patterns by what the tree can say
// about their union with s under two cardinality bounds: a pattern p can
// only satisfy
//
//	popcount(s|p) <= maxTotal  and  popcount((s|p)&mask) <= maxMasked
//
// if every subtree around it does with its AND in p's place. Subtrees
// that already break a bound are ruled out whole and only counted; the
// patterns of the leaves that remain are appended to dst by index,
// untested and in no particular order — the caller runs its exact test on
// them. It returns the extended dst and the number of patterns ruled out;
// the two always add up to Len().
func (t *Tree) AppendUnionWithin(dst []int32, s, mask []uint64, maxTotal, maxMasked int) ([]int32, int) {
	if len(s) != t.words || len(mask) != t.words {
		panic(fmt.Sprintf("bptree: query has %d and %d words, want %d", len(s), len(mask), t.words))
	}
	ruledOut := 0
	words := t.words
	for ni := 0; ni < len(t.nodes); {
		n := t.nodes[ni]
		total, masked := 0, 0
		for w, c := range t.common[ni*words : ni*words+words] {
			u := s[w] | c
			total += bits.OnesCount64(u)
			masked += bits.OnesCount64(u & mask[w])
		}
		if total > maxTotal || masked > maxMasked {
			ruledOut += int(n.hi - n.lo)
			ni = int(n.end)
			continue
		}
		if int(n.end) == ni+1 {
			dst = append(dst, t.perm[n.lo:n.hi]...)
		}
		ni++
	}
	return dst, ruledOut
}

func isSubset(p, s []uint64) bool {
	for w, v := range p {
		if v&^s[w] != 0 {
			return false
		}
	}
	return true
}
