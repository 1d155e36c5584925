package lru

import (
	"fmt"
	"testing"
)

func byBytes(p []byte) int64 { return int64(len(p)) }

func one(string) int64 { return 1 }

func has[V any](c *Cache[V], key string) bool {
	_, ok := c.Get(key)
	return ok
}

func TestLRUEviction(t *testing.T) {
	c := New(100, byBytes)
	c.Put("a", make([]byte, 40))
	c.Put("b", make([]byte, 40))
	// Touch "a" so "b" is the LRU victim.
	if !has(c, "a") {
		t.Fatal("Get(a) missed")
	}
	c.Put("c", make([]byte, 40))
	if has(c, "b") {
		t.Error("LRU entry b survived eviction")
	}
	if !has(c, "a") {
		t.Error("recently used entry a evicted")
	}
	if !has(c, "c") {
		t.Error("fresh entry c missing")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	if st.Bytes != 80 {
		t.Errorf("size = %d, want 80", st.Bytes)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", st.Hits, st.Misses)
	}
}

func TestReplaceAndRemove(t *testing.T) {
	c := New(100, byBytes)
	c.Put("k", make([]byte, 60))
	c.Put("k", make([]byte, 20)) // replace shrinks
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 20 {
		t.Fatalf("after replace: %+v", st)
	}
	if v, ok := c.Get("k"); !ok || len(v) != 20 {
		t.Fatalf("replaced entry: ok=%v len=%d", ok, len(v))
	}
	c.Remove("k")
	if has(c, "k") {
		t.Error("removed entry still served")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Errorf("after remove: %+v, want empty", st)
	}
	c.Remove("k") // absent key: no-op
}

func TestRejectsOversize(t *testing.T) {
	c := New(10, byBytes)
	c.Put("small", make([]byte, 10))
	c.Put("big", make([]byte, 11))
	if has(c, "big") {
		t.Error("over-budget value admitted")
	}
	if !has(c, "small") {
		t.Error("rejected Put evicted a resident entry")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 1 rejected / 0 evictions", st)
	}
}

func TestDisabled(t *testing.T) {
	for _, off := range []*Cache[string]{New(-1, one), New(-1, func(s string) int64 { return int64(len(s)) })} {
		off.Put("k", "")
		off.Put("k2", "v")
		if has(off, "k") || has(off, "k2") {
			t.Error("disabled cache served an entry")
		}
		if st := off.Stats(); st.Entries != 0 || st.Rejected != 2 {
			t.Errorf("stats = %+v, want 0 entries / 2 rejected", st)
		}
	}
}

func TestManyKeysStayWithinBudget(t *testing.T) {
	c := New(256, byBytes)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 32))
	}
	st := c.Stats()
	if st.Bytes > 256 {
		t.Errorf("size %d exceeds budget", st.Bytes)
	}
	if st.Entries != 8 {
		t.Errorf("entries = %d, want 8", st.Entries)
	}
}

// TestCountBounded: cost ≡ 1 makes the budget an entry count.
func TestCountBounded(t *testing.T) {
	c1 := New(1, one)
	c1.Put("a", "A")
	c1.Put("b", "B")
	if has(c1, "a") || !has(c1, "b") {
		t.Error("budget 1 must hold exactly the newest entry")
	}
	if st := c1.Stats(); st.Entries != 1 || st.Evictions != 1 || st.Bytes != 1 {
		t.Errorf("budget 1: %+v", st)
	}

	c2 := New(2, one)
	c2.Put("a", "A")
	c2.Put("b", "B")
	if !has(c2, "a") { // touch: b becomes the victim
		t.Fatal("budget 2 dropped a resident entry")
	}
	c2.Put("c", "C")
	if has(c2, "b") || !has(c2, "a") || !has(c2, "c") {
		t.Error("budget 2 must evict the least recently used of three")
	}
	if st := c2.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("budget 2: %+v", st)
	}
}

// TestPutIfKeepsOrReplaces: the replace callback decides against the
// held value; an absent key is stored without consulting it.
func TestPutIfKeepsOrReplaces(t *testing.T) {
	c := New(10, one)
	longer := func(v string) func(string) bool {
		return func(old string) bool { return len(v) > len(old) }
	}
	c.PutIf("k", "ab", longer("ab"))
	c.PutIf("k", "a", longer("a"))
	if v, _ := c.Get("k"); v != "ab" {
		t.Fatalf("shorter value replaced the held one: %q", v)
	}
	c.PutIf("k", "abc", longer("abc"))
	if v, _ := c.Get("k"); v != "abc" {
		t.Fatalf("longer value not stored: %q", v)
	}
	// A kept entry still counts as used.
	c2 := New(2, one)
	c2.Put("old", "x")
	c2.Put("new", "y")
	c2.PutIf("old", "z", func(string) bool { return false })
	c2.Put("third", "w")
	if !has(c2, "old") || has(c2, "new") {
		t.Error("PutIf that kept the held value did not refresh its recency")
	}
}
