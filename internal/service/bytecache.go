package service

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/lru"
	"repro/internal/store"
)

// The response-byte cache is the serve path's answer to the store's
// byte-identity guarantee: since a warm replay of a grid is byte-identical
// to its cold marshal (the durability clause of the cache-key invariant),
// the canonical response BYTES themselves are cacheable — a warm request
// is answered by one map lookup and one socket write, with no grid parse,
// no engine walk, and no re-marshal. Population is already singleflighted
// by the flight table (one evaluation, one put); eviction is internal/lru's
// least-recently-used order under a byte budget: entries leave whole or
// not at all — a hit returns the complete cached body or nil, never a
// prefix — and a response already handed to a writer stays valid after
// eviction because entries are immutable (eviction drops the reference,
// it never mutates or truncates the bytes).
//
// Keys are the same SHA-256 content addressing the store uses, over a
// VERSIONED preimage: respSchemaVersion | store.CodecVersion | grid line.
// Bump respSchemaVersion whenever the canonical response encoding changes
// (field added, marshal layout changed — the EvalResponse sibling of the
// store's "bump CodecVersion" rule); the store's own codec version rides
// in the key too, so a value-encoding bump can never serve bytes computed
// under the old semantics. Stale-version entries are simply unreachable —
// they age out by LRU, exactly like stale-codec store entries read as
// misses.

// respSchemaVersion versions the byte-cache key against changes to the
// canonical EvalResponse encoding. Bump it whenever MarshalCanonical's
// output for an unchanged grid could change. v2: warm-start landed —
// grids evaluated under an engine with incremental evaluation enabled may
// produce values in a different (certified-equal) ε class than v1's.
const respSchemaVersion uint16 = 2

// respKey is a byte-cache key: the SHA-256 of the versioned preimage.
// Using the raw digest as the map key keeps the hot lookup free of hex
// encoding and string allocation.
type respKey [sha256.Size]byte

// respKeyPrefix is the versioned preimage prefix shared by every key.
var respKeyPrefix = respPrefix(respSchemaVersion, uint16(store.CodecVersion))

func respPrefix(schema, codec uint16) string {
	return fmt.Sprintf("resp|schema=%d|codec=%d|", schema, codec)
}

// respKeyFor hashes the versioned preimage for a grid line, building it in
// scratch (grown only when too small) so a hot request computes its key
// with zero heap allocations. The returned scratch is handed back for
// reuse.
func respKeyFor(scratch []byte, prefix, line string) (respKey, []byte) {
	scratch = append(scratch[:0], prefix...)
	scratch = append(scratch, line...)
	return sha256.Sum256(scratch), scratch
}

// respCacheStats is a point-in-time snapshot of the byte cache.
type respCacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	Bytes                   int64
}

// Metrics emits the byte cache's /metrics families in scrape order, each
// with its help text.
func (s respCacheStats) Metrics(emit func(name, help string, v int64)) {
	emit("response_bytes_cache_hits_total", "Warm grids answered from cached canonical response bytes.", s.Hits)
	emit("response_bytes_cache_misses_total", "Response-byte cache lookups that missed.", s.Misses)
	emit("response_bytes_cache_evictions_total", "Response-byte cache entries evicted by the byte budget.", s.Evictions)
	emit("response_bytes_cache_entries", "Response-byte cache resident entries.", int64(s.Entries))
	emit("response_bytes_cache_bytes", "Response-byte cache resident bytes.", s.Bytes)
}

// respCache is the content-addressed response-byte cache: an LRU over
// canonical bodies, each charged its length against maxBytes. A negative
// maxBytes disables it entirely (the budget refuses every body, so every
// get is a counted miss).
type respCache struct {
	mu  sync.Mutex
	lru *lru.Cache[respKey, []byte]
	st  respCacheStats // counters; stats fills in Evictions, Entries and Bytes
}

func newRespCache(maxBytes int64) *respCache {
	return &respCache{lru: lru.New[respKey, []byte](maxBytes)}
}

// get returns the complete cached canonical bytes for k, or nil on a miss.
// The returned slice is shared and immutable: callers write it, they never
// modify it.
func (c *respCache) get(k respKey) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, ok := c.lru.Get(k)
	if !ok {
		c.st.Misses++
		return nil
	}
	c.st.Hits++
	return body
}

// put caches body under k, evicting least-recently-used entries until the
// cache fits its byte budget. The caller transfers the body in: it must
// never be mutated afterwards (the service's response bodies never are —
// they are freshly marshaled and only ever written to sockets). A body
// larger than the whole budget is not cached: admitting it would evict
// everything for an entry the next put removes anyway.
func (c *respCache) put(k respKey, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Racing populates for one key carry byte-identical bodies (the
	// invariant this cache is built on); keep the resident entry.
	if _, ok := c.lru.Get(k); !ok {
		c.lru.Add(k, body, int64(len(body)))
	}
}

// stats snapshots the cache counters and resident state.
func (c *respCache) stats() respCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Evictions, st.Entries, st.Bytes = c.lru.Evictions(), c.lru.Len(), c.lru.Size()
	return st
}
