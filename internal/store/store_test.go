package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// bg is the context of every test Load: no test here cancels or traces.
var bg = context.Background()

// TestRoundTripAcrossHandles is the durability contract: values written
// through one store handle are read back reflect.DeepEqual through a
// fresh handle on the same directory — the cross-process restart path.
func TestRoundTripAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]float64{
		"a|eps=0.1|seed=1": {0.25, 0.5, 1.0 / 3.0},
		"b|eps=0.1|seed=2": {},
		"c|eps=0.2|seed=3": {42},
	}
	for k, v := range vals {
		if err := w.SaveLinked(k, v, ""); err != nil {
			t.Fatal(err)
		}
	}

	r, err := Open(dir) // fresh handle: index rebuilt from disk
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range vals {
		got, ok := r.Load(bg, k)
		if !ok {
			t.Fatalf("key %q missing via fresh handle", k)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("key %q: got %v want %v", k, got, want)
		}
	}
	st := r.Stats()
	if st.Hits != 3 || st.Misses != 0 || st.Entries != 3 {
		t.Fatalf("stats after warm reads: %+v", st)
	}
	if _, ok := r.Load(bg, "never-written"); ok {
		t.Fatal("phantom hit")
	}
}

// TestLoadAdoptsLateWrite: an entry published by another handle (process)
// after this handle indexed the directory is still found, via the
// filesystem fallback.
func TestLoadAdoptsLateWrite(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SaveLinked("late", []float64{1, 2}, ""); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Load(bg, "late")
	if !ok || !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Fatalf("late write not adopted: %v %v", got, ok)
	}
}

// TestConcurrentWritersOneKey races writers on a single key: every racer
// publishes atomically, so the surviving entry must decode to one of the
// written values, and the store must never error or read garbage.
func TestConcurrentWritersOneKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const racers = 16
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if err := s.SaveLinked("hot", []float64{float64(i), float64(rep)}, ""); err != nil {
					t.Errorf("save: %v", err)
					return
				}
				if vals, ok := s.Load(bg, "hot"); ok {
					if len(vals) != 2 || vals[0] < 0 || vals[0] >= racers {
						t.Errorf("torn read: %v", vals)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	vals, ok := s.Load(bg, "hot")
	if !ok || len(vals) != 2 {
		t.Fatalf("final read: %v %v", vals, ok)
	}
	if st := s.Stats(); st.Entries != 1 || st.Corrupt != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// No temp droppings left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, "*", ".tmp-*"))
	if len(matches) != 0 {
		t.Fatalf("leftover temp files: %v", matches)
	}
}

// TestCorruptionIsAMiss is the tamper suite: truncation, bit flips, a
// wrong magic, a foreign codec version, and a checksum-breaking payload
// edit must each read as a miss (and drop the entry), never as data and
// never as an error.
func TestCorruptionIsAMiss(t *testing.T) {
	tampers := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], CodecVersion+1)
			return b
		}},
		{"payload-bitflip", func(b []byte) []byte { b[headerSize] ^= 1; return b }},
		{"count", func(b []byte) []byte { b[8]++; return b }},
		{"garbage", func(b []byte) []byte { return []byte("not a store entry at all") }},
	}
	for _, tc := range tampers {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SaveLinked("k", []float64{1, 2, 3}, ""); err != nil {
				t.Fatal(err)
			}
			path := s.path(Addr("k"))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			// Both through the live handle and a fresh one.
			for _, h := range []*Store{s, mustOpen(t, dir)} {
				if vals, ok := h.Load(bg, "k"); ok {
					t.Fatalf("tampered entry served: %v", vals)
				}
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("tampered entry not dropped from disk: %v", err)
			}
			if st := s.Stats(); st.Corrupt == 0 && tc.name != "empty" {
				t.Fatalf("corruption not counted: %+v", st)
			}
			// The key is writable again and round-trips.
			if err := s.SaveLinked("k", []float64{9}, ""); err != nil {
				t.Fatal(err)
			}
			if vals, ok := s.Load(bg, "k"); !ok || !reflect.DeepEqual(vals, []float64{9}) {
				t.Fatalf("rewrite after corruption: %v %v", vals, ok)
			}
		})
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPruneRespectsBound: Prune evicts least-recently-used entries until
// the byte budget holds, and survivors still load.
func TestPruneRespectsBound(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for i := 0; i < 10; i++ {
		if err := s.SaveLinked(fmt.Sprintf("k%d", i), []float64{float64(i), 0, 0, 0}, ""); err != nil {
			t.Fatal(err)
		}
	}
	total := s.Stats().Bytes
	per := total / 10
	// Touch k7..k9 so k0..k6 are the LRU tail.
	for i := 7; i < 10; i++ {
		if _, ok := s.Load(bg, fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d missing before prune", i)
		}
	}
	evicted := s.Prune(3 * per)
	if evicted != 7 {
		t.Fatalf("evicted %d entries, want 7", evicted)
	}
	st := s.Stats()
	if st.Bytes > 3*per || st.Entries != 3 {
		t.Fatalf("after prune: %+v (budget %d)", st, 3*per)
	}
	for i := 0; i < 7; i++ {
		if _, ok := s.Load(bg, fmt.Sprintf("k%d", i)); ok {
			t.Fatalf("k%d survived prune", i)
		}
	}
	for i := 7; i < 10; i++ {
		if vals, ok := s.Load(bg, fmt.Sprintf("k%d", i)); !ok || vals[0] != float64(i) {
			t.Fatalf("k%d lost by prune: %v %v", i, vals, ok)
		}
	}
	// A fresh handle agrees with the on-disk state.
	if st := mustOpen(t, dir).Stats(); st.Entries != 3 {
		t.Fatalf("fresh handle sees %d entries, want 3", st.Entries)
	}
}

// TestPruneNeverEvictsMidRead pins the reader/pruner interaction: a Load
// that has started (pinned its entry) completes with its full value even
// when a concurrent Prune(0) tries to evict everything.
func TestPruneNeverEvictsMidRead(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	want := []float64{1, 2, 3, 4}
	if err := s.SaveLinked("pinned", want, ""); err != nil {
		t.Fatal(err)
	}

	inRead := make(chan struct{})
	release := make(chan struct{})
	s.loadHook = func() {
		close(inRead)
		<-release
	}
	type res struct {
		vals []float64
		ok   bool
	}
	got := make(chan res, 1)
	go func() {
		v, ok := s.Load(bg, "pinned")
		got <- res{v, ok}
	}()
	<-inRead
	s.loadHook = nil
	if n := s.Prune(0); n != 0 {
		t.Fatalf("prune evicted %d entries under an in-flight read", n)
	}
	close(release)
	r := <-got
	if !r.ok || !reflect.DeepEqual(r.vals, want) {
		t.Fatalf("mid-prune read: %v %v", r.vals, r.ok)
	}
	// Unpinned now: the same budget evicts it.
	if n := s.Prune(0); n != 1 {
		t.Fatalf("post-read prune evicted %d, want 1", n)
	}
}

// TestOpenRejectsUnusableDir: an unwritable cache dir must fail at Open,
// with an error, not a panic and not a silently dead store.
func TestOpenRejectsUnusableDir(t *testing.T) {
	if _, err := Open("/dev/null/sub"); err == nil {
		t.Fatal("Open under /dev/null succeeded")
	}
	if os.Getuid() != 0 { // root ignores mode bits
		ro := filepath.Join(t.TempDir(), "ro")
		if err := os.Mkdir(ro, 0o555); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(ro); err == nil {
			t.Fatal("Open on read-only dir succeeded")
		}
	}
}

// TestOpenIgnoresForeignFiles: junk in the tree (temp leftovers, stray
// files) is not indexed and does not break Open.
func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.SaveLinked("k", []float64{1}, ""); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, Addr("k")[:2], ".tmp-zzz"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := mustOpen(t, dir)
	if st := f.Stats(); st.Entries != 1 {
		t.Fatalf("foreign files indexed: %+v", st)
	}
	if vals, ok := f.Load(bg, "k"); !ok || vals[0] != 1 {
		t.Fatalf("real entry lost among junk: %v %v", vals, ok)
	}
}

// TestCodecRoundTrip exercises the codec directly, including NaN/Inf bit
// patterns and the empty value list.
func TestCodecRoundTrip(t *testing.T) {
	cases := [][]float64{
		{},
		{0},
		{1.5, -2.25, 1e-300, 1e300},
		{0.1, 0.2, 0.30000000000000004},
	}
	for _, vals := range cases {
		got, parent, ok := DecodeEntry(EncodeLinked(vals, ""))
		if !ok || !reflect.DeepEqual(got, vals) || parent != "" {
			t.Fatalf("codec round trip %v -> %v (%v)", vals, got, ok)
		}
	}
}

// TestPruneNeverEvictsPinnedParent is the warm-start extension of the
// pinned-read rule: an entry pinned via PinKey (an in-flight delta solve
// depending on its parent's witness) survives any Prune, however far over
// budget the store is, and becomes evictable again only after release.
func TestPruneNeverEvictsPinnedParent(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	want := []float64{4, 5, 6}
	if err := s.SaveLinked("parent", want, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.SaveLinked(fmt.Sprintf("filler%d", i), []float64{float64(i)}, ""); err != nil {
			t.Fatal(err)
		}
	}
	release := s.PinKey("parent")
	if s.Prune(0) != 5 {
		t.Fatal("prune did not evict exactly the unpinned entries")
	}
	if vals, ok := s.Load(bg, "parent"); !ok || !reflect.DeepEqual(vals, want) {
		t.Fatalf("pinned parent evicted or damaged: %v %v", vals, ok)
	}
	// Release is idempotent; after it the entry prunes normally.
	release()
	release()
	if s.Prune(0) != 1 {
		t.Fatal("released parent not evicted")
	}
	if _, ok := s.Load(bg, "parent"); ok {
		t.Fatal("parent survived post-release prune")
	}
	// Pinning an address that holds no entry is a harmless no-op.
	s.PinKey("absent")()
}

// TestNegativeCache: repeated lookups of an absent address are answered
// from the negative cache within the TTL (no disk stat), a Save
// invalidates the negative entry immediately, and entries expire.
func TestNegativeCache(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.EnableNegativeCache(4, 50*time.Millisecond)

	if _, ok := s.Load(bg, "ghost"); ok {
		t.Fatal("absent key loaded")
	}
	if _, ok := s.Load(bg, "ghost"); ok {
		t.Fatal("absent key loaded")
	}
	if st := s.Stats(); st.NegHits != 1 || st.Misses != 2 {
		t.Fatalf("negative cache did not absorb the repeat miss: %+v", st)
	}

	// A write through this handle drops the negative entry at once: the
	// very next lookup must see the fresh value.
	if err := s.SaveLinked("ghost", []float64{7}, ""); err != nil {
		t.Fatal(err)
	}
	if vals, ok := s.Load(bg, "ghost"); !ok || vals[0] != 7 {
		t.Fatalf("negative entry outlived the publish: %v %v", vals, ok)
	}

	// Out-of-band publishes (another process) become visible after the
	// TTL: a fresh store handle on the same dir stands in for the writer.
	if _, ok := s.Load(bg, "late"); ok {
		t.Fatal("absent key loaded")
	}
	if err := mustOpen(t, dir).SaveLinked("late", []float64{8}, ""); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(bg, "late"); ok {
		t.Fatal("negative entry expired early")
	}
	time.Sleep(60 * time.Millisecond)
	if vals, ok := s.Load(bg, "late"); !ok || vals[0] != 8 {
		t.Fatalf("publish invisible after TTL: %v %v", vals, ok)
	}

	// The memo is bounded: overflowing it evicts oldest-first rather than
	// growing without limit.
	for i := 0; i < 10; i++ {
		s.Load(bg, fmt.Sprintf("bulk%d", i))
	}
	if n := s.neg.Len(); n > 4 {
		t.Fatalf("negative cache grew to %d entries, bound is 4", n)
	}
}

// TestCodecLinkedRoundTrip exercises the codec v2 parent link: linked
// entries round-trip values and parent address, unlinked entries report
// none, and malformed parents are dropped at encode time rather than
// corrupting the entry.
func TestCodecLinkedRoundTrip(t *testing.T) {
	vals := []float64{1, 2, 3}
	parent := Addr("the parent key")
	buf := EncodeLinked(vals, parent)
	got, gotParent, ok := DecodeEntry(buf)
	if !ok || !reflect.DeepEqual(got, vals) || gotParent != parent {
		t.Fatalf("linked round trip: %v %q %v", got, gotParent, ok)
	}
	// Unlinked entries report no parent.
	if _, p, ok := DecodeEntry(EncodeLinked(vals, "")); !ok || p != "" {
		t.Fatalf("unlinked entry carries parent %q (%v)", p, ok)
	}
	// A malformed parent cannot be followed, so encode drops it.
	if _, p, ok := DecodeEntry(EncodeLinked(vals, "not-hex")); !ok || p != "" {
		t.Fatalf("malformed parent survived encode: %q %v", p, ok)
	}
}

// TestCodecRejectsForeignEntries: entries from other codec versions or
// with unknown flag bits read as misses — never as values.
func TestCodecRejectsForeignEntries(t *testing.T) {
	buf := EncodeLinked([]float64{1, 2}, "")

	// A v1 writer's entry: same layout, older version word, valid CRC.
	v1 := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint16(v1[4:6], 1)
	binary.LittleEndian.PutUint32(v1[len(v1)-4:], crc32.ChecksumIEEE(v1[:len(v1)-4]))
	if _, _, ok := DecodeEntry(v1); ok {
		t.Fatal("v1 entry decoded under the v2 codec")
	}

	// A future writer's entry: unknown flag bit, valid CRC.
	future := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint16(future[6:8], 1<<7)
	binary.LittleEndian.PutUint32(future[len(future)-4:], crc32.ChecksumIEEE(future[:len(future)-4]))
	if _, _, ok := DecodeEntry(future); ok {
		t.Fatal("unknown-flag entry decoded")
	}

	// A linked entry with its parent bytes truncated fails the length
	// check.
	linked := EncodeLinked([]float64{1, 2}, Addr("p"))
	if _, _, ok := DecodeEntry(linked[:len(linked)-8]); ok {
		t.Fatal("truncated linked entry decoded")
	}
}

// TestStoreParentLinkPersists: SaveLinked writes an entry whose parent
// address a fresh handle reads back; Load treats it as an ordinary entry.
func TestStoreParentLinkPersists(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	want := []float64{1, 2}
	if err := s.SaveLinked("child", want, "parent"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ParentLinks != 1 {
		t.Fatalf("linked write not counted: %+v", st)
	}
	f := mustOpen(t, dir)
	raw, vals, ok := f.LoadAddrBuf(Addr("child"), nil, nil)
	if !ok || !reflect.DeepEqual(vals, want) {
		t.Fatalf("linked entry load: %v %v", vals, ok)
	}
	if _, parent, ok := DecodeEntry(raw); !ok || parent != Addr("parent") {
		t.Fatalf("parent link lost across handles: %q %v", parent, ok)
	}
	// A malformed parent address fails loudly at save time.
	if err := s.SaveAddrLinked(Addr("child"), want, "xyz"); err == nil {
		t.Fatal("malformed parent address accepted")
	}
}
