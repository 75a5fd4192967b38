package scenario

import (
	"context"
	"crypto/sha256"
	"sync"

	"repro/internal/trace"
)

// Backend is an optional second, durable tier beneath the in-memory
// cache — in practice internal/store's disk-backed result store, but any
// key-value layer honoring the contract plugs in. Load returns the values
// stored under a point key (false on any miss, including corruption —
// a backend must never surface wrong data, only absence); Save publishes
// them. Both must be safe for concurrent use. Under the cache key
// invariant, whatever a backend returns for a key is exactly what a cold
// solve of that key would compute, so tiering changes latency, never
// results.
type Backend interface {
	Load(key string) ([]float64, bool)
	Save(key string, vals []float64) error
}

// Cache is the content-addressed solve cache. Entries are keyed by the
// SHA-256 of a Point's Key() — (topology spec, traffic spec, evaluator
// spec, ε, seed, seed factor, runs) — which under the cache key invariant
// (see the package comment) fully determines the run values. A hit
// therefore returns exactly what a cold solve would compute, so enabling
// the cache can never change results, only skip work; the cache tests
// enforce reflect.DeepEqual between cached and cold values.
//
// Lookup is tiered: the in-memory map first, then the optional Backend
// (a disk store persisting results across processes). A backend hit is
// promoted into memory; a put writes through to both tiers. Backend save
// errors (disk full, torn permissions) are counted, not raised — the
// solve already has its value, durability is best-effort.
//
// The cache is safe for concurrent use. Values are stored and returned as
// private copies, so callers can neither corrupt an entry nor observe a
// later mutation.
type Cache struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte][]float64
	backend Backend
	st      CacheStats // counters; Stats fills in Entries
}

// CacheStats snapshots a cache's lookup counters: Hits served from
// memory, StoreHits served from the backend (and promoted), Misses served
// from neither; StoreErrs counts backend save failures, Entries the
// resident in-memory entries.
type CacheStats struct {
	Hits, Misses         int64
	StoreHits, StoreErrs int64
	Entries              int
}

// Metrics emits the cache's /metrics families in scrape order, each
// with its help text.
func (s CacheStats) Metrics(emit func(name, help string, v int64)) {
	emit("cache_hits_total", "Solve-cache memory-tier hits.", s.Hits)
	emit("cache_store_hits_total", "Solve-cache hits served from the backing store tier.", s.StoreHits)
	emit("cache_misses_total", "Solve-cache misses (the point was solved).", s.Misses)
	emit("cache_store_errors_total", "Solve-cache store-tier read/write errors.", s.StoreErrs)
	emit("cache_entries", "Solve-cache resident memory-tier entries.", int64(s.Entries))
}

// NewCache returns an empty in-memory solve cache.
func NewCache() *Cache {
	return &Cache{entries: map[[sha256.Size]byte][]float64{}}
}

// Default is the process-wide cache shared by the experiment layer: every
// figure and sweep run through it, so instances shared across figures (or
// across probes of one adaptive search) solve once per process. topobench
// attaches a disk store beneath it when -cache-dir is set, making "once
// per process" into "once, ever".
var Default = NewCache()

// SetBackend attaches (or, with nil, detaches) the durable tier. Safe to
// call concurrently with lookups; typically wired once at startup.
func (c *Cache) SetBackend(b Backend) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backend = b
}

// Get returns the run values stored under key, if any — from memory, or
// failing that from the backend (promoting the entry into memory).
func (c *Cache) Get(key string) ([]float64, bool) {
	return c.GetCtx(context.Background(), key)
}

// CtxBackend is the optional backend extension for context-aware loads:
// backends that can propagate cancellation or trace context downstream
// (the store's Tiered, the remote store client) implement LoadCtx;
// GetCtx uses it when present and falls back to the plain Load. The
// contract is Load's — ok=false on any miss, never wrong data.
type CtxBackend interface {
	LoadCtx(ctx context.Context, key string) ([]float64, bool)
}

// GetCtx is Get carrying the caller's context. When the context holds a
// sampled trace span, the lookup records tier spans (memory, then the
// backend) with hit/miss outcomes; when it does not, the span calls are
// inert and GetCtx costs the same as Get.
func (c *Cache) GetCtx(ctx context.Context, key string) ([]float64, bool) {
	h := sha256.Sum256([]byte(key))
	c.mu.Lock()
	vals, ok := c.entries[h]
	backend := c.backend
	if ok {
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
	c.mu.Unlock()

	if backend != nil {
		// The backend read happens outside the cache lock: disk latency must
		// not serialize unrelated lookups.
		sp := trace.StartSpan(ctx, "tier.store")
		vals, ok := c.loadBackend(ctx, backend, key)
		if ok {
			sp.Attr("outcome", "hit")
			sp.End()
			cp := make([]float64, len(vals))
			copy(cp, vals)
			c.mu.Lock()
			c.entries[h] = cp
			c.st.StoreHits++
			c.mu.Unlock()
			out := make([]float64, len(vals))
			copy(out, vals)
			return out, true
		}
		sp.Attr("outcome", "miss")
		sp.End()
	}
	c.mu.Lock()
	c.st.Misses++
	c.mu.Unlock()
	return nil, false
}

// loadBackend dispatches one backend read, via LoadCtx when the backend
// is context-aware.
func (c *Cache) loadBackend(ctx context.Context, backend Backend, key string) ([]float64, bool) {
	if cb, ok := backend.(CtxBackend); ok {
		return cb.LoadCtx(ctx, key)
	}
	return backend.Load(key)
}

// BackendAbandoner is the optional backend extension for abandoned
// solves: a backend that coordinates misses through claim leases (the
// store's Tiered) implements Abandon to release the lease on a key whose
// solve produced nothing to Put — errored, canceled, or infeasible.
type BackendAbandoner interface {
	Abandon(key string)
}

// Abandon tells the backend, if it cares, that the solve for key ended
// without a value. For plain backends this is a no-op; for claim-holding
// tiers it releases the lease immediately instead of parking fleet peers
// until it expires.
func (c *Cache) Abandon(key string) {
	c.mu.Lock()
	backend := c.backend
	c.mu.Unlock()
	if a, ok := backend.(BackendAbandoner); ok {
		a.Abandon(key)
	}
}

// Put stores the run values under key, writing through to the backend
// when one is attached.
func (c *Cache) Put(key string, vals []float64) {
	c.PutLinked(key, vals, "")
}

// LinkedBackend is the optional backend extension for parent-linked
// publication (structurally store.LinkedSaver): backends that can record
// which entry's result warm-started this one implement it. PutLinked
// falls back to a plain Save — losing the link, never the values — when
// the backend does not.
type LinkedBackend interface {
	SaveLinked(key string, vals []float64, parentKey string) error
}

// PutLinked is Put carrying the parent point key whose result
// warm-started this solve (""  for none). The link is durable provenance
// and observability; lookups never depend on it.
func (c *Cache) PutLinked(key string, vals []float64, parentKey string) {
	h := sha256.Sum256([]byte(key))
	cp := make([]float64, len(vals))
	copy(cp, vals)
	c.mu.Lock()
	c.entries[h] = cp
	backend := c.backend
	c.mu.Unlock()
	if backend == nil {
		return
	}
	var err error
	if lb, ok := backend.(LinkedBackend); ok && parentKey != "" {
		err = lb.SaveLinked(key, vals, parentKey)
	} else {
		err = backend.Save(key, vals)
	}
	if err != nil {
		c.mu.Lock()
		c.st.StoreErrs++
		c.mu.Unlock()
	}
}

// BackendPinner is the optional backend extension for eviction pinning
// (structurally store.Store.PinKey/store.Tiered.PinKey): Pin uses it to
// keep a parent entry resident for the duration of an in-flight warm
// start, so a concurrent Prune can never evict the entry a delta solve
// is depending on.
type BackendPinner interface {
	PinKey(key string) func()
}

// Pin pins key's backend entry against eviction, returning an idempotent
// release. A backend without pinning (or no backend) returns a no-op.
func (c *Cache) Pin(key string) func() {
	c.mu.Lock()
	backend := c.backend
	c.mu.Unlock()
	if p, ok := backend.(BackendPinner); ok {
		return p.PinKey(key)
	}
	return func() {}
}

// Stats reports the cache's lookup counters and resident entries.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Entries = len(c.entries)
	return st
}

// Reset drops every in-memory entry and zeroes the counters. The backend,
// if any, keeps its entries — durable state outlives process resets.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[[sha256.Size]byte][]float64{}
	c.st = CacheStats{}
}
