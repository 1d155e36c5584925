package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		s := New(n)
		if s.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, s.Len())
		}
		if s.Count() != 0 {
			t.Errorf("New(%d).Count() = %d", n, s.Count())
		}
	}
}

func TestSetTestClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(){
		func() { New(10).Set(10) },
		func() { New(10).Set(-1) },
		func() { New(10).Test(10) },
		func() { New(-1) },
		func() { OrInto(New(10), New(10), New(11)) },
		func() { New(10).IsSubsetOf(New(11)) },
		func() { New(10).Compare(New(64)) },
	}
	for i, f := range cases {
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

func TestFromIndicesAndIndices(t *testing.T) {
	idx := []int{3, 77, 12, 64, 0}
	s := FromIndices(100, idx...)
	got := s.Indices(nil)
	want := append([]int(nil), idx...)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestOrAndSubset(t *testing.T) {
	a := FromIndices(70, 1, 65)
	b := FromIndices(70, 2, 65)
	u, i := New(70), New(70)
	OrInto(u, a, b)
	if u.Count() != 3 || !u.Test(1) || !u.Test(2) || !u.Test(65) {
		t.Fatalf("Or wrong: %v", u.Indices(nil))
	}
	if !a.IsSubsetOf(u) || !b.IsSubsetOf(u) {
		t.Fatal("operands not subsets of union")
	}
	if u.IsSubsetOf(a) {
		t.Fatal("union subset of operand")
	}
	AndInto(i, a, b)
	if i.Count() != 1 || !i.Test(65) {
		t.Fatalf("And wrong: %v", i.Indices(nil))
	}
}

func TestAndNotInto(t *testing.T) {
	a := FromIndices(70, 1, 2, 65)
	b := FromIndices(70, 2, 65)
	d := New(70)
	AndNotInto(d, a, b)
	if d.Count() != 1 || !d.Test(1) {
		t.Fatalf("AndNot wrong: %v", d.Indices(nil))
	}
}

func TestIntersects(t *testing.T) {
	a := FromIndices(130, 0, 129)
	b := FromIndices(130, 129)
	c := FromIndices(130, 64)
	if !a.Intersects(b) {
		t.Fatal("a should intersect b")
	}
	if a.Intersects(c) {
		t.Fatal("a should not intersect c")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	a := FromIndices(70, 1)
	b := FromIndices(70, 2)
	c := FromIndices(70, 65)
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Fatal("compare within word wrong")
	}
	if a.Compare(c) != -1 || c.Compare(a) != 1 {
		t.Fatal("compare across words wrong (high word should dominate)")
	}
	if a.Compare(a.Clone()) != 0 {
		t.Fatal("compare equal wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(40, 5)
	b := a.Clone()
	b.Set(6)
	if a.Test(6) || !b.Test(5) {
		t.Fatal("Clone shares storage or dropped a bit")
	}
}

func TestNextSet(t *testing.T) {
	s := FromIndices(200, 3, 64, 130, 199)
	var got []int
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		got = append(got, i)
	}
	want := []int{3, 64, 130, 199}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk = %v, want %v", got, want)
		}
	}
	if s.NextSet(200) != -1 {
		t.Fatal("NextSet past end should be -1")
	}
	if s.NextSet(-5) != 3 {
		t.Fatal("NextSet with negative start should clamp to 0")
	}
}

func TestString(t *testing.T) {
	s := FromIndices(5, 0, 2, 3)
	if got := s.String(); got != "10110" {
		t.Fatalf("String = %q, want 10110", got)
	}
}

func TestResetAndReuse(t *testing.T) {
	s := FromIndices(90, 1, 89)
	s.Reset()
	if s.Count() != 0 {
		t.Fatal("Reset left bits set")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 64, 100} {
		s := New(n)
		for i := 0; i < n; i += 7 {
			s.Set(i)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var u Set
		if err := u.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if !s.Equal(u) {
			t.Fatalf("round trip mismatch at n=%d", n)
		}
	}
	var u Set
	if err := u.UnmarshalBinary([]byte{1, 2}); err == nil {
		t.Fatal("truncated header accepted")
	}
	if err := u.UnmarshalBinary([]byte{200, 0, 0, 0, 1}); err == nil {
		t.Fatal("bad length accepted")
	}
}

// randomSet builds a reproducible random set of width n from seed.
func randomSet(n int, seed int64) Set {
	r := rand.New(rand.NewSource(seed))
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			s.Set(i)
		}
	}
	return s
}

// Property: union is commutative, associative, idempotent and monotone.
func TestQuickUnionLaws(t *testing.T) {
	f := func(sa, sb, sc int64) bool {
		const n = 150
		a, b, c := randomSet(n, sa), randomSet(n, sb), randomSet(n, sc)
		ab, ba, bc, l, r, aa := New(n), New(n), New(n), New(n), New(n), New(n)
		OrInto(ab, a, b)
		OrInto(ba, b, a)
		if !ab.Equal(ba) {
			return false
		}
		OrInto(bc, b, c)
		OrInto(l, ab, c)
		OrInto(r, a, bc)
		if !l.Equal(r) {
			return false
		}
		OrInto(aa, a, a)
		if !aa.Equal(a) {
			return false
		}
		return a.IsSubsetOf(ab)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: subset relation agrees with element-wise definition, and
// popcount of a union equals |a| + |b| - |a ∩ b|.
func TestQuickSubsetAndCount(t *testing.T) {
	f := func(sa, sb int64) bool {
		const n = 99
		a, b := randomSet(n, sa), randomSet(n, sb)
		sub := true
		for i := 0; i < n; i++ {
			if a.Test(i) && !b.Test(i) {
				sub = false
				break
			}
		}
		if a.IsSubsetOf(b) != sub {
			return false
		}
		u, i := New(n), New(n)
		OrInto(u, a, b)
		AndInto(i, a, b)
		return u.Count() == a.Count()+b.Count()-i.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is a total order consistent with Equal, and hashing is
// content-determined.
func TestQuickCompareHash(t *testing.T) {
	f := func(sa, sb int64) bool {
		const n = 130
		a, b := randomSet(n, sa), randomSet(n, sb)
		cab, cba := a.Compare(b), b.Compare(a)
		if cab != -cba {
			return false
		}
		if (cab == 0) != a.Equal(b) {
			return false
		}
		if a.Equal(b) && a.Hash() != b.Hash() {
			return false
		}
		return a.Hash() == a.Clone().Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: marshal/unmarshal is the identity.
func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)
		s := randomSet(n, seed)
		data, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		var u Set
		if err := u.UnmarshalBinary(data); err != nil {
			return false
		}
		return s.Equal(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOrInto(b *testing.B) {
	x := randomSet(64, 1)
	y := randomSet(64, 2)
	d := New(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OrInto(d, x, y)
	}
}

func BenchmarkIsSubsetOf(b *testing.B) {
	x := randomSet(64, 3)
	u := New(64)
	OrInto(u, x, randomSet(64, 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !x.IsSubsetOf(u) {
			b.Fatal("subset violated")
		}
	}
}

func BenchmarkCount(b *testing.B) {
	x := randomSet(256, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Count()
	}
}
