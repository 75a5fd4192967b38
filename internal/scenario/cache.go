package scenario

import (
	"context"
	"crypto/sha256"
	"sync"

	"repro/internal/lru"
	"repro/internal/trace"
)

// Backend is the contract between the cache and a durable tier — in
// practice internal/store's disk store or its Tiered front, or a
// remotestore client speaking to a peer replica, but any key-value layer
// honoring the contract plugs in. Load returns the values stored under a
// point key as a slice the caller owns (false on any miss, including
// corruption — a backend must never surface wrong data, only absence);
// when ctx holds a sampled trace span, the backend may record its own
// spans beneath it. SaveLinked publishes values together with the key of
// the parent point whose result warm-started their solve ("" for none).
// Abandon releases any solve claim a Load took on a key whose solve ended
// with nothing to save; a tier that takes no claims implements it as a
// no-op. All methods must be safe for concurrent use. Under the cache key
// invariant, whatever a backend returns for a key is exactly what a cold
// solve of that key would compute, so the choice of tier changes latency,
// never results. No tier pins entries for the cache: a witness evicted
// before a child loads it only makes that child solve cold.
type Backend interface {
	Load(ctx context.Context, key string) ([]float64, bool)
	SaveLinked(key string, vals []float64, parentKey string) error
	Abandon(key string)
}

// Cache is the content-addressed solve cache. Entries are keyed by the
// SHA-256 of a Point's Key() — (topology spec, traffic spec, evaluator
// spec, ε, seed, seed factor, runs) — which under the cache key invariant
// (see the package comment) fully determines the run values. A hit
// therefore returns exactly what a cold solve would compute, so enabling
// the cache can never change results, only skip work; the cache tests
// enforce reflect.DeepEqual between cached and cold values.
//
// The cache holds exactly one tier: an in-memory LRU, or — once
// SetBackend attaches one — the Backend alone (a disk store persisting
// results across processes), so a store-backed process keeps no second
// in-memory copy of what the store already holds. The memory tier evicts
// whole entries, least recently used first, to stay within memBudget;
// under the key invariant an evicted point re-solves to the same values,
// and an evicted warm-start witness only makes a later child solve cold.
// Backend save errors (disk full, torn permissions) are counted, not
// raised — the solve already has its value, durability is best-effort.
//
// The cache is safe for concurrent use. Values are stored and returned as
// private copies, so callers can neither corrupt an entry nor observe a
// later mutation.
type Cache struct {
	mu      sync.Mutex
	mem     *lru.Cache[[sha256.Size]byte, []float64]
	backend Backend
	st      CacheStats // counters; Stats fills in Evictions and Entries
}

// The memory tier charges each entry 8 bytes per value plus
// memEntryOverhead (key, map slot, recency links) against memBudget, which
// batch runs stay far below: all quick figures together hold ~400 entries.
const memBudget, memEntryOverhead = 64 << 20, 128

// CacheStats snapshots a cache's lookup counters: Hits served from
// memory, StoreHits served from the backend, Misses served from neither;
// StoreErrs counts backend save failures, Evictions the memory-tier
// entries dropped to keep its budget, Entries the resident memory-tier
// entries.
type CacheStats struct {
	Hits, Misses         int64
	StoreHits, StoreErrs int64
	Evictions            int64
	Entries              int
}

// Metrics emits the cache's /metrics families in scrape order, each
// with its help text.
func (s CacheStats) Metrics(emit func(name, help string, v int64)) {
	emit("cache_hits_total", "Solve-cache memory-tier hits.", s.Hits)
	emit("cache_store_hits_total", "Solve-cache hits served from the backing store tier.", s.StoreHits)
	emit("cache_misses_total", "Solve-cache misses (the point was solved).", s.Misses)
	emit("cache_store_errors_total", "Solve-cache store-tier read/write errors.", s.StoreErrs)
	emit("cache_evictions_total", "Solve-cache memory-tier entries evicted by the byte budget.", s.Evictions)
	emit("cache_entries", "Solve-cache resident memory-tier entries.", int64(s.Entries))
}

// NewCache returns an empty in-memory solve cache.
func NewCache() *Cache { return newCache(memBudget) }

// newCache returns an empty cache whose memory tier holds budget bytes.
func newCache(budget int64) *Cache {
	return &Cache{mem: lru.New[[sha256.Size]byte, []float64](budget)}
}

// SetBackend attaches (or, with nil, detaches) the durable tier. Safe to
// call concurrently with lookups; typically wired once at startup.
func (c *Cache) SetBackend(b Backend) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backend = b
}

func (c *Cache) tier() Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backend
}

// Get returns the run values stored under key, if any — from the backend
// when one is attached, else from memory. When ctx holds a sampled trace
// span, the lookup records its tier's span (tier.store or tier.memory)
// with the hit/miss outcome; when it does not, the span calls are inert.
func (c *Cache) Get(ctx context.Context, key string) ([]float64, bool) {
	if backend := c.tier(); backend != nil {
		// The backend read happens outside the cache lock: disk latency must
		// not serialize unrelated lookups.
		sp := trace.StartSpan(ctx, "tier.store")
		vals, ok := backend.Load(ctx, key)
		outcome := "miss"
		c.mu.Lock()
		if ok {
			c.st.StoreHits++
			outcome = "hit"
		} else {
			c.st.Misses++
		}
		c.mu.Unlock()
		sp.Attr("outcome", outcome)
		sp.End()
		return vals, ok
	}
	h := sha256.Sum256([]byte(key))
	c.mu.Lock()
	vals, ok := c.mem.Get(h)
	if !ok {
		c.st.Misses++
		c.mu.Unlock()
		return nil, false
	}
	c.st.Hits++
	out := make([]float64, len(vals))
	copy(out, vals)
	c.mu.Unlock()
	if sp := trace.StartSpan(ctx, "tier.memory"); sp.OK() {
		sp.Attr("outcome", "hit")
		sp.End()
	}
	return out, true
}

// Put stores the run values under key — in the backend when one is
// attached, else in the memory tier. parentKey names the point whose result
// warm-started this solve ("" for none); the backend records the link as
// durable provenance and observability, and lookups never depend on it.
func (c *Cache) Put(key string, vals []float64, parentKey string) {
	if backend := c.tier(); backend != nil {
		if err := backend.SaveLinked(key, vals, parentKey); err != nil {
			c.mu.Lock()
			c.st.StoreErrs++
			c.mu.Unlock()
		}
		return
	}
	h := sha256.Sum256([]byte(key))
	cp := make([]float64, len(vals))
	copy(cp, vals)
	c.mu.Lock()
	c.mem.Add(h, cp, memEntryOverhead+8*int64(len(cp)))
	c.mu.Unlock()
}

// Abandon tells the backend that the solve for key ended without a value,
// so a claim-holding tier releases its lease immediately instead of
// parking fleet peers until it expires. Without a backend it does nothing.
func (c *Cache) Abandon(key string) {
	if backend := c.tier(); backend != nil {
		backend.Abandon(key)
	}
}

// Stats reports the cache's lookup counters and resident entries.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Evictions, st.Entries = c.mem.Evictions(), c.mem.Len()
	return st
}
