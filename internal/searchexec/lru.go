package searchexec

import (
	"container/list"
	"sync"
)

// CacheStats reports cumulative cache effectiveness.
type CacheStats struct {
	Hits, Misses uint64
	Len, Cap     int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// LRU is a thread-safe fixed-capacity least-recently-used cache with
// hit/miss counters. The zero value is not usable; construct with NewLRU.
type LRU[K comparable, V any] struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List
	items  map[K]*list.Element
	hits   uint64
	misses uint64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU creates a cache holding at most capacity entries (minimum 1).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Peek returns the cached value without touching the hit/miss counters or
// the recency order. For double-checked probes whose first Get already
// recorded the lookup's outcome.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes a value, evicting the least recently used entry
// when the cache is full.
func (c *LRU[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		back := c.ll.Back()
		if back != nil {
			c.ll.Remove(back)
			delete(c.items, back.Value.(*lruEntry[K, V]).key)
		}
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
}

// Replace swaps the value of a cached key in place, without touching the
// hit/miss counters or the recency order. A key that is not cached (never
// was, or was evicted) stays uncached.
func (c *LRU[K, V]) Replace(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
	}
}

// Len returns the current entry count.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *LRU[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Len: c.ll.Len(), Cap: c.cap}
}
