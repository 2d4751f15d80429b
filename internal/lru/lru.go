// Package lru is the repository's one bounded recency cache. The server's
// result L1, the coordinator's merged-sweep L1 and the engine's trace
// cache all sit on it, so they share one eviction rule and one meaning of
// capacity.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values, holding at most its capacity of entries:
// storing into a full cache displaces the least recently used entry. Get
// and Put both count as use. A capacity of zero or less stores nothing,
// so a disabled cache is an ordinary Cache that always misses. Values are
// returned as stored; callers that share them treat them as immutable.
// A Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	cap int

	mu    sync.Mutex
	items map[K]*list.Element // values are *entry[K, V]
	order list.List           // front = most recently used
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache bounded to capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, items: make(map[K]*list.Element)}
}

// Get returns the value stored under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if c.cap <= 0 {
		var zero V
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key as the most recently used entry, replacing any
// value already there. It reports whether an older entry was evicted to
// stay within capacity.
func (c *Cache[K, V]) Put(key K, val V) (evicted bool) {
	if c.cap <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return false
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	if c.order.Len() <= c.cap {
		return false
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	delete(c.items, oldest.Value.(*entry[K, V]).key)
	return true
}

// Remove deletes key's entry, if any.
func (c *Cache[K, V]) Remove(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
