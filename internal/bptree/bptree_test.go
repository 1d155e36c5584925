package bptree

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func pat(width int, bits ...int) []uint64 {
	w := make([]uint64, (width+63)/64)
	for _, b := range bits {
		w[b/64] |= 1 << uint(b%64)
	}
	return w
}

func TestBasicSubsetQueries(t *testing.T) {
	b := NewBuilder(10)
	b.Add(pat(10, 0, 1))
	b.Add(pat(10, 2, 3))
	b.Add(pat(10, 0, 5, 9))
	tree := b.Build()
	if tree.Len() != 3 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if !tree.HasSubsetOf(pat(10, 0, 1, 2)) {
		t.Fatal("missed {0,1} ⊆ {0,1,2}")
	}
	if tree.HasSubsetOf(pat(10, 1, 2)) {
		t.Fatal("found a subset of {1,2}, none exists")
	}
	if !tree.HasSubsetOf(pat(10, 0, 5, 9)) {
		t.Fatal("a pattern is a subset of itself")
	}
}

func TestEmptyAndWidthChecks(t *testing.T) {
	tree := NewBuilder(5).Build()
	if tree.HasSubsetOf(pat(5, 0, 1, 2, 3, 4)) {
		t.Fatal("empty tree found a subset")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on width mismatch")
		}
	}()
	tree.HasSubsetOf(make([]uint64, 3))
}

func TestBuilderPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewBuilder(0) },
		func() { NewBuilder(10).Add(make([]uint64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: tree queries agree with a linear scan on random pattern
// collections.
func TestQuickAgainstLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const width = 100
		n := 1 + rng.Intn(60)
		b := NewBuilder(width)
		pats := make([][]uint64, n)
		for i := range pats {
			var bits []int
			k := 1 + rng.Intn(10)
			for j := 0; j < k; j++ {
				bits = append(bits, rng.Intn(width))
			}
			pats[i] = pat(width, bits...)
			b.Add(pats[i])
		}
		tree := b.Build()
		for trial := 0; trial < 20; trial++ {
			var bits []int
			k := rng.Intn(20)
			for j := 0; j < k; j++ {
				bits = append(bits, rng.Intn(width))
			}
			q := pat(width, bits...)
			want := false
			for _, p := range pats {
				sub := true
				for w := range p {
					if p[w]&^q[w] != 0 {
						sub = false
						break
					}
				}
				want = want || sub
			}
			if tree.HasSubsetOf(q) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the pruning walk agrees with a linear scan under two bounds.
// What it rules out breaks a bound, what it appends is everything else
// the tree holds — each index once — and whatever satisfies both bounds
// is among the appended.
func TestQuickUnionWithinAgainstLinearScan(t *testing.T) {
	ruledOutTotal := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(150)
		random := func(maxBits int) []uint64 {
			var bits []int
			for j := rng.Intn(maxBits + 1); j > 0; j-- {
				bits = append(bits, rng.Intn(width))
			}
			return pat(width, bits...)
		}
		n := rng.Intn(200)
		b := NewBuilder(width)
		pats := make([][]uint64, n)
		for i := range pats {
			pats[i] = random(12)
			b.Add(pats[i])
		}
		tree := b.Build()
		mask := random(width)
		for trial := 0; trial < 20; trial++ {
			q := random(12)
			maxTotal, maxMasked := rng.Intn(26), rng.Intn(14)
			got := tree.AppendUnionWithin([]int32{-7}, q, mask, maxTotal, maxMasked)
			if got[0] != -7 {
				return false
			}
			ruledOutTotal += n - (len(got) - 1)
			appended := make(map[int32]bool)
			for _, i := range got[1:] {
				if i < 0 || int(i) >= n || appended[i] {
					return false
				}
				appended[i] = true
			}
			for i, p := range pats {
				total, masked := 0, 0
				for w := range p {
					total += bits.OnesCount64(p[w] | q[w])
					masked += bits.OnesCount64((p[w] | q[w]) & mask[w])
				}
				if total <= maxTotal && masked <= maxMasked && !appended[int32(i)] {
					return false // ruled out a pattern within both bounds
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if ruledOutTotal == 0 {
		t.Fatal("the walk never ruled out a subtree")
	}
}

// TestRebuildReusesStorage: a rebuilt tree answers for its new patterns
// only, keeps its arrays, and owns its patterns.
func TestRebuildReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pats := make([][]uint64, 300)
	for i := range pats {
		pats[i] = pat(70, rng.Intn(70), rng.Intn(70), rng.Intn(70))
	}
	var tree Tree
	tree.Rebuild(70, len(pats), func(i int) []uint64 { return pats[i] })
	nodes, words := cap(tree.nodes), cap(tree.pats)
	tree.Rebuild(70, 2, func(i int) []uint64 { return pats[i] })
	if tree.Len() != 2 || cap(tree.nodes) != nodes || cap(tree.pats) != words {
		t.Fatalf("rebuilt tree: %d patterns, capacities %d, %d -> %d, %d", tree.Len(), nodes, words, cap(tree.nodes), cap(tree.pats))
	}
	query := append([]uint64(nil), pats[1]...)
	clear(pats[1]) // the tree copied it
	if !tree.HasSubsetOf(query) || tree.HasSubsetOf(pats[2]) {
		t.Fatal("rebuilt tree answers for stale patterns")
	}
	tree.Rebuild(70, 0, nil)
	if tree.Len() != 0 || tree.HasSubsetOf(query) {
		t.Fatal("emptied tree still holds patterns")
	}
}

func BenchmarkQuery1000Patterns(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const width = 64
	bld := NewBuilder(width)
	for i := 0; i < 1000; i++ {
		var bits []int
		for j := 0; j < 12; j++ {
			bits = append(bits, rng.Intn(width))
		}
		bld.Add(pat(width, bits...))
	}
	tree := bld.Build()
	q := pat(width, 1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45, 49, 53)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.HasSubsetOf(q)
	}
}
