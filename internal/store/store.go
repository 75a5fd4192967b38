// Package store is the disk-backed tier of the scenario engine's
// content-addressed solve cache: attached with scenario.Cache.SetBackend
// (directly, or behind Tiered), it replaces the cache's memory tier. It
// persists per-point run values under their content address — the
// SHA-256 of the point's Key() string, the same address the in-memory
// scenario.Cache uses — so a second process answers a previously-solved
// grid from disk instead of re-solving it.
//
// The durability contract extends the cache-key invariant across
// processes: under that invariant a stored entry holds exactly what a
// cold solve of the same key would compute, so a warm read is
// reflect.DeepEqual to a cold solve no matter which process wrote it.
// Anything that could break the contract reads as a miss, never as wrong
// data: entries are written with a versioned, checksummed codec (see
// codec.go) and published atomically (temp file + rename in the shard
// directory), so a truncated, tampered, torn, or stale-codec-version file
// is silently re-solved and replaced.
//
// The store never fsyncs. A process crash loses nothing published — the
// rename is atomic and the bytes sit in the page cache — but a power loss
// after the rename can leave an entry whose bytes never reached the disk.
// That entry fails its CRC and reads as a miss, by design: the point is
// re-solved and the entry rewritten, as for any other damaged file.
// Durability is best-effort; correctness is not.
//
// Layout: <dir>/<addr[:2]>/<addr[2:]> where addr is the lowercase hex
// content address — 256 shard directories keep listings short at
// millions of entries. Open scans the tree once into an in-memory index
// (sizes + last-access ordering seeded from file mtimes); Prune evicts
// least-recently-used entries down to a byte budget, skipping entries
// pinned by in-flight reads. The index and the counters are the handle's
// only in-memory state: a lookup of an address outside the index stats
// its file, so another process's publish is visible at once.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Store is one handle on a result-store directory. It is safe for
// concurrent use within a process; across processes, atomic publication
// keeps concurrent writers safe (last writer wins with a complete entry),
// and readers fall back to the filesystem for addresses written after the
// handle was opened.
type Store struct {
	dir string

	mu    sync.Mutex
	index map[string]*entry // content address -> entry
	bytes int64
	clock int64 // logical access clock for LRU ordering
	st    Stats // counters; Stats fills in Entries and Bytes

	// loadHook, when set (tests only), runs after a Load has pinned its
	// entry and released the lock, before the file is read — the window a
	// concurrent Prune must not evict in.
	loadHook func()
	// pruneHook, when set (tests only), runs per victim after Prune's
	// selection pass has released the lock, before the victim's removal —
	// the window in which a concurrent Save may re-publish the entry.
	pruneHook func(addr string)
	// unclaimHook, when set (tests only), runs inside Unclaim after the
	// release has observed the claim file, before it decides to delete —
	// the window in which a successor may reclaim an expired lease.
	unclaimHook func()
}

type entry struct {
	size   int64
	access int64 // logical clock of the last lookup (mtime-seeded at open)
	pins   int   // in-flight reads; pinned entries are never evicted
}

// Stats is a point-in-time snapshot of a store handle's activity and
// resident state.
type Stats struct {
	Hits, Misses int64 // Load outcomes through this handle
	Writes       int64 // successful Saves
	Corrupt      int64 // entries dropped because they failed to decode
	Evicted      int64 // entries removed by Prune
	// Orphans counts crashed-writer temp files garbage-collected at Open: a
	// writer that died between CreateTemp and the publishing rename (a
	// SIGKILL mid-Save) leaves a .tmp-* file no entry ever points to.
	Orphans int64
	// ParentLinks counts entries written with a parent content-address
	// link — the durable trace of warm-started (delta) solves.
	ParentLinks int64
	Entries     int   // resident entries in the index
	Bytes       int64 // total size of resident entries
}

// Metrics emits the store's /metrics families in scrape order, each with
// its help text.
func (s Stats) Metrics(emit func(name, help string, v int64)) {
	emit("store_hits_total", "Result-store reads that found a verified entry.", s.Hits)
	emit("store_misses_total", "Result-store reads that found nothing.", s.Misses)
	emit("store_writes_total", "Result-store entries written.", s.Writes)
	emit("store_corrupt_total", "Result-store entries rejected by codec/CRC verification.", s.Corrupt)
	emit("store_evicted_total", "Result-store entries evicted by LRU pruning.", s.Evicted)
	emit("store_orphans_total", "Result-store orphaned temp files swept at startup.", s.Orphans)
	emit("store_parent_links_total", "Result-store entries written with a warm-start parent link.", s.ParentLinks)
	emit("store_entries", "Result-store resident entries.", int64(s.Entries))
	emit("store_bytes", "Result-store resident bytes.", s.Bytes)
}

// Addr is the content address of a cache key: lowercase hex SHA-256. It
// is the on-disk name of the entry and the <key> of the service's
// GET /v1/result/<key> route.
func Addr(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// Open creates (if needed) and indexes a store directory. The directory
// must be writable: an unusable path is an error here, at open time, so
// commands can fail cleanly instead of discovering it mid-run.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: cache dir %s not usable: %w", dir, err)
	}
	// Probe writability now: MkdirAll succeeds on an existing read-only
	// directory, but Saves (and prune deletions) would fail later.
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("store: cache dir %s not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())

	s := &Store{dir: dir, index: map[string]*entry{}}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		shard, name := filepath.Split(rel)
		shard = filepath.Clean(shard)
		addr := shard + name
		if len(shard) != 2 || len(addr) != 2*sha256.Size || !isHex(addr) {
			// Crashed-writer leftovers: a Save killed between CreateTemp and
			// the publishing rename orphans a .tmp-* file. Old ones (a live
			// writer's temp exists for milliseconds; the grace period keeps a
			// racing process's in-flight write safe) are garbage-collected so
			// a crash loop cannot fill the disk with invisible files.
			if strings.HasPrefix(name, ".tmp-") {
				if info, err := d.Info(); err == nil && time.Since(info.ModTime()) > orphanGrace {
					if os.Remove(path) == nil {
						s.st.Orphans++
					}
				}
			}
			return nil // probe leftovers, live temp files, foreign junk
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent prune/replace
		}
		e := &entry{size: info.Size(), access: info.ModTime().UnixNano()}
		s.index[addr] = e
		s.bytes += e.size
		if e.access > s.clock {
			s.clock = e.access
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: indexing %s: %w", dir, err)
	}
	return s, nil
}

// orphanGrace is how old a .tmp-* file must be before Open treats it as a
// crashed writer's orphan rather than a racing process's in-flight Save.
const orphanGrace = time.Minute

func isHex(a string) bool {
	for i := 0; i < len(a); i++ {
		c := a[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(addr string) string {
	return filepath.Join(s.dir, addr[:2], addr[2:])
}

// Load returns the run values stored under key, if a valid entry exists
// (scenario.Backend). Corrupt or truncated entries are dropped and read
// as misses. A disk read records no span of its own, so ctx is unused.
func (s *Store) Load(_ context.Context, key string) ([]float64, bool) {
	return s.LoadAddr(Addr(key))
}

// LoadAddr is Load by precomputed content address (the service's
// GET /v1/result path).
func (s *Store) LoadAddr(addr string) ([]float64, bool) {
	_, vals, ok := s.LoadAddrBuf(addr, nil, nil)
	return vals, ok
}

// LoadAddrBuf is LoadAddr with caller-owned scratch: the entry file is
// read into buf (grown only when too small) and the values are decoded by
// appending to vals sliced to zero length, so a serving hot loop performs
// no per-read allocations once its scratch has grown to the working-set
// entry size. On ok=true, raw holds the verified entry bytes exactly as a
// Save wrote them — the TBRS wire format, forwardable to peers without
// re-encoding — and out holds the decoded values; both alias the scratch
// and are valid only until the caller's next use of it. Every semantic of
// LoadAddr is preserved: misses, corruption-as-miss (the damaged file is
// dropped), pinning against concurrent Prune, and the stats counters.
func (s *Store) LoadAddrBuf(addr string, buf []byte, vals []float64) (raw []byte, out []float64, ok bool) {
	if len(addr) != 2*sha256.Size || !isHex(addr) {
		s.mu.Lock()
		s.st.Misses++
		s.mu.Unlock()
		return nil, nil, false
	}
	path := s.path(addr)
	s.mu.Lock()
	e, found := s.index[addr]
	if !found {
		// The entry may have been published by another process after this
		// handle indexed the tree; adopt it if the file exists.
		if info, err := os.Stat(path); err == nil {
			e = &entry{size: info.Size()}
			s.index[addr] = e
			s.bytes += e.size
			found = true
		}
	}
	if !found {
		s.st.Misses++
		s.mu.Unlock()
		return nil, nil, false
	}
	s.clock++
	e.access = s.clock
	e.pins++ // a pinned entry cannot be evicted mid-read
	s.mu.Unlock()

	if s.loadHook != nil {
		s.loadHook()
	}
	buf, readErr := readFileInto(path, buf)

	s.mu.Lock()
	defer s.mu.Unlock()
	e.pins--
	if readErr != nil {
		s.dropLocked(addr, e)
		s.st.Misses++
		return nil, nil, false
	}
	vals, _, decOK := decodeEntry(buf, vals[:0])
	if !decOK {
		s.dropLocked(addr, e)
		s.st.Corrupt++
		s.st.Misses++
		return nil, nil, false
	}
	s.st.Hits++
	return buf, vals, true
}

// readFileInto reads path into buf, growing it only when the file exceeds
// the scratch capacity. A file that grows between Stat and read returns an
// error (treated as a miss by the caller) rather than truncated bytes; the
// codec's CRC would reject a short read regardless.
func readFileInto(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return buf, err
	}
	n := int(info.Size())
	if cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	// Entries are published by rename and never appended, so the opened
	// file cannot change size under the read; a racing replace swaps the
	// whole inode and this descriptor keeps the complete old bytes.
	if _, err := io.ReadFull(f, buf); err != nil {
		return buf, err
	}
	return buf, nil
}

// dropLocked removes an entry from the index and best-effort from disk.
// Caller holds s.mu.
func (s *Store) dropLocked(addr string, e *entry) {
	if cur, ok := s.index[addr]; ok && cur == e {
		delete(s.index, addr)
		s.bytes -= e.size
		os.Remove(s.path(addr))
	}
}

// SaveLinked publishes run values under key (scenario.Backend), with a
// parent content-address link: the entry records (codec v2) which entry's
// result warm-started this solve. parentKey is the parent's cache KEY
// (hashed here); "" writes an unlinked entry. Publication is atomic: the
// entry is written to a temp file in its shard directory and renamed into
// place, so concurrent writers racing on one key both leave a complete,
// decodable entry (last rename wins) and readers never observe a torn
// write.
func (s *Store) SaveLinked(key string, vals []float64, parentKey string) error {
	parent := ""
	if parentKey != "" {
		parent = Addr(parentKey)
	}
	return s.SaveAddrLinked(Addr(key), vals, parent)
}

// SaveAddrLinked is SaveLinked by precomputed content addresses — the
// receiving end of the service's PUT /v1/result/<key> route, where only
// the addresses are on the wire. The address must be a well-formed
// content address; the caller vouches that vals were solved under the key
// hashing to it. parent is lowercase hex, or "" for none. A malformed
// parent is an error, like a malformed address: links exist to be
// followed, so a link that cannot be followed must fail loudly at write
// time rather than silently degrade.
func (s *Store) SaveAddrLinked(addr string, vals []float64, parent string) error {
	if len(addr) != 2*sha256.Size || !isHex(addr) {
		return fmt.Errorf("store: malformed content address %q", addr)
	}
	if parent != "" && (len(parent) != 2*sha256.Size || !isHex(parent)) {
		return fmt.Errorf("store: malformed parent content address %q", parent)
	}
	shard := filepath.Join(s.dir, addr[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	buf := EncodeLinked(vals, parent)
	tmp, err := os.CreateTemp(shard, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}

	// The publishing rename happens under the store lock, together with
	// the index insert: file-at-addr and index[addr] change as one step
	// with respect to Prune, whose removals re-verify the index under the
	// same lock. A rename outside the lock would let a Prune that already
	// selected this addr as a victim unlink the freshly renamed file
	// before the index insert lands, orphaning the entry.
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp.Name(), s.path(addr)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.st.Writes++
	if parent != "" {
		s.st.ParentLinks++
	}
	s.clock++
	if e, ok := s.index[addr]; ok {
		s.bytes += int64(len(buf)) - e.size
		e.size = int64(len(buf))
		e.access = s.clock
		return nil
	}
	s.index[addr] = &entry{size: int64(len(buf)), access: s.clock}
	s.bytes += int64(len(buf))
	return nil
}

// Prune evicts least-recently-used entries until the store's resident
// bytes are within maxBytes, returning how many entries were removed.
// Entries pinned by in-flight Loads are never evicted — a read started
// before the prune always completes against its bytes (or, if another
// process already replaced the file, decodes the complete replacement).
//
// Victims are selected in one sorted pass under the lock; each unlink
// then re-acquires the lock briefly and re-verifies the victim is still
// absent from the index before removing its file. The re-check closes the
// re-publish race: a Save racing the prune re-inserts the entry (rename +
// index insert are one locked step), so the prune sees it under the lock
// and keeps the fresh file — a selected-then-re-saved entry survives with
// its new bytes instead of leaving an orphaned index entry behind.
// Concurrent lookups see at most an O(n log n) selection stall plus
// per-victim lock handoffs, never one long syscall-laden critical section.
func (s *Store) Prune(maxBytes int64) int {
	s.mu.Lock()
	if s.bytes <= maxBytes {
		s.mu.Unlock()
		return 0
	}
	type victim struct {
		addr   string
		access int64
	}
	candidates := make([]victim, 0, len(s.index))
	for addr, e := range s.index {
		if e.pins == 0 {
			candidates = append(candidates, victim{addr, e.access})
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].access < candidates[j].access })
	var evict []string
	for _, v := range candidates {
		if s.bytes <= maxBytes {
			break
		}
		e := s.index[v.addr]
		delete(s.index, v.addr)
		s.bytes -= e.size
		s.st.Evicted++
		evict = append(evict, v.addr)
	}
	s.mu.Unlock()
	removed := 0
	for _, addr := range evict {
		if s.pruneHook != nil {
			s.pruneHook(addr)
		}
		s.mu.Lock()
		if _, resaved := s.index[addr]; resaved {
			// A concurrent Save re-published this entry after victim
			// selection: it is current again, not garbage. Keep the file
			// and take the eviction back out of the stats.
			s.st.Evicted--
		} else {
			os.Remove(s.path(addr))
			removed++
		}
		s.mu.Unlock()
	}
	return removed
}

// Stats snapshots the handle's counters and resident state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Entries, st.Bytes = len(s.index), s.bytes
	return st
}

// Abandon is a no-op (scenario.Backend): a bare store takes no solve
// claims to release; Tiered does.
func (*Store) Abandon(string) {}

// EnableNegativeCache does nothing. It stays only for its one caller,
// perfbench/daemon.go, until that benchmark drops the call.
func (*Store) EnableNegativeCache(int, time.Duration) {}
