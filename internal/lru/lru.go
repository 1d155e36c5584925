// Package lru is the repository's one bounded cache: string keys, a
// budget, and a per-entry cost function, so a byte-bounded user (cost =
// payload length) and a count-bounded user (cost ≡ 1) share one
// implementation. Entries are evicted least-recently-used first.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps string keys to values under a cost budget. It is safe for
// concurrent use. Values are shared with callers, who must not mutate
// what they stored or were handed.
type Cache[V any] struct {
	mu     sync.Mutex
	budget int64
	cost   func(V) int64
	size   int64
	ll     *list.List // front = most recently used
	items  map[string]*list.Element

	hits, misses, evictions, rejected int64
}

type entry[V any] struct {
	key string
	val V
}

// Stats is a point-in-time snapshot of a cache's gauges and counters.
// The JSON shape is the job service's /varz cache block.
type Stats struct {
	Entries int `json:"entries"`
	// Bytes is the summed cost of the held entries, in the budget's unit
	// (which for a count-bounded cache is entries, not bytes).
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Rejected counts values costlier than the whole budget, stored
	// nowhere (admitting one would evict the entire cache for a single
	// entry).
	Rejected int64 `json:"rejected"`
}

// New returns a cache holding at most budget units of cost. A negative
// budget disables it: every Get misses, every Put is rejected.
func New[V any](budget int64, cost func(V) int64) *Cache[V] {
	return &Cache[V]{
		budget: budget,
		cost:   cost,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
	}
}

// Get returns the value stored under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) { return c.GetIf(key, nil) }

// GetIf is Get, except that a value held under key is returned only when
// usable(v) says so; otherwise the lookup is a miss and the entry keeps
// its place. usable runs under the cache's lock, as PutIf's replace
// does, so the hit counter counts only lookups that served something.
func (c *Cache[V]) GetIf(key string, usable func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[key]
	if found && (usable == nil || usable(el.Value.(*entry[V]).val)) {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put stores v under key, replacing any previous value, then evicts
// least-recently-used entries until the budget holds.
func (c *Cache[V]) Put(key string, v V) { c.PutIf(key, v, nil) }

// PutIf is Put, except that a value already held under key is replaced
// only when replace(old) says so; either way the entry becomes most
// recently used. The check and the store are one atomic step, which is
// what an upgrade-only policy needs.
func (c *Cache[V]) PutIf(key string, v V, replace func(old V) bool) {
	cost := c.cost(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.budget {
		c.rejected++
		return
	}
	if el, found := c.items[key]; found {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry[V])
		if replace != nil && !replace(e.val) {
			return
		}
		c.size += cost - c.cost(e.val)
		e.val = v
	} else {
		c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: v})
		c.size += cost
	}
	for c.size > c.budget {
		c.removeLocked(c.ll.Back())
		c.evictions++
	}
}

// Remove drops key from the cache.
func (c *Cache[V]) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.items[key]; found {
		c.removeLocked(el)
	}
}

func (c *Cache[V]) removeLocked(el *list.Element) {
	e := el.Value.(*entry[V])
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.size -= c.cost(e.val)
}

// Stats snapshots the cache counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   len(c.items),
		Bytes:     c.size,
		Budget:    c.budget,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Rejected:  c.rejected,
	}
}
