// Package lru is the process's one in-memory eviction mechanism: a map
// bounded by a size budget that evicts whole entries, least recently used
// first. It has two owners: the service's response-byte cache (bodies
// charged their length) and scenario.Cache's memory tier (run values, 8
// bytes each plus a fixed per-entry overhead). Two bounded structures
// keep their own mechanism. The disk store's Prune skips entries pinned
// by in-flight reads, evicts only when a caller asks, to that call's
// budget, and unlinks its victims outside its lock; an LRU that evicts
// inside Add can do none of that. The trace ring keeps the last N
// completed traces in completion order: reading a trace does not make it
// recent.
package lru

// Cache maps keys to values whose sizes, as charged by the owner, sum to
// at most a budget. Get and Add make an entry the most recently used and
// are O(1). A Cache is not safe for concurrent use: each owner guards its
// cache with its own lock.
type Cache[K comparable, V any] struct {
	budget, size, evictions int64
	items                   map[K]*entry[K, V]
	root                    entry[K, V] // ring sentinel: root.next is the most recent entry, root.prev the least
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *entry[K, V]
}

// New returns an empty cache with the given budget.
func New[K comparable, V any](budget int64) *Cache[K, V] {
	c := &Cache[K, V]{budget: budget, items: map[K]*entry[K, V]{}}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value stored under k and makes it the most recently used.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	e := c.items[k]
	if e == nil {
		return v, false
	}
	c.front(e)
	return e.val, true
}

// Add stores v under k, charged size, as the most recently used entry,
// replacing any value k held, and evicts least-recently-used entries until
// the budget holds. An entry with a negative size or one larger than the
// whole budget is refused: Add returns false and changes nothing.
func (c *Cache[K, V]) Add(k K, v V, size int64) bool {
	if size < 0 || size > c.budget {
		return false
	}
	e := c.items[k]
	if e == nil {
		e = &entry[K, V]{key: k}
		c.items[k] = e
	}
	c.size += size - e.size
	e.val, e.size = v, size
	c.front(e)
	for c.size > c.budget { // e fits alone, so eviction stops before it
		c.remove(c.root.prev)
		c.evictions++
	}
	return true
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Size reports the sum of the entries' sizes.
func (c *Cache[K, V]) Size() int64 { return c.size }

// Evictions reports how many entries Add has evicted to keep the budget.
func (c *Cache[K, V]) Evictions() int64 { return c.evictions }

// front moves e, linked or new, to the most recent end of the ring.
func (c *Cache[K, V]) front(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache[K, V]) remove(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	delete(c.items, e.key)
	c.size -= e.size
}
