package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestOrphanTempGC: a writer SIGKILLed between CreateTemp and the
// publishing rename leaves a .tmp-* file. Open must index the tree
// cleanly, garbage-collect aged orphans, and leave fresh temps (a racing
// process's in-flight Save) alone.
func TestOrphanTempGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveLinked("live-key", []float64{1, 2, 3}, ""); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: orphan temps in a shard dir and at the root,
	// plus one fresh temp that must survive.
	shard := filepath.Join(dir, "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * orphanGrace)
	for _, p := range []string{filepath.Join(shard, ".tmp-dead1"), filepath.Join(dir, ".tmp-dead2")} {
		if err := os.WriteFile(p, []byte("torn half-written entry"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	fresh := filepath.Join(shard, ".tmp-live")
	if err := os.WriteFile(fresh, []byte("in-flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen over crash debris: %v", err)
	}
	if got := s2.Stats().Orphans; got != 2 {
		t.Fatalf("orphans GC'd: %d, want 2", got)
	}
	if s2.Stats().Entries != 1 {
		t.Fatalf("entries: %d, want 1 (debris must not be indexed)", s2.Stats().Entries)
	}
	if vals, ok := s2.Load(bg, "live-key"); !ok || !reflect.DeepEqual(vals, []float64{1, 2, 3}) {
		t.Fatalf("live entry lost across crash recovery: %v %v", vals, ok)
	}
	for _, p := range []string{filepath.Join(shard, ".tmp-dead1"), filepath.Join(dir, ".tmp-dead2")} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("aged orphan %s not removed", p)
		}
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp removed — would tear a racing writer: %v", err)
	}
}

// TestClaimLease exercises the claim primitive: atomic acquisition, a
// live lease losing the race, owner-checked release, and expired-lease
// reclaim.
func TestClaimLease(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	addr := Addr("claimed-point")

	won, deadline := s.Claim(addr, "alice", time.Minute)
	if !won {
		t.Fatal("first claim must win")
	}
	if time.Until(deadline) < 30*time.Second {
		t.Fatalf("deadline too near: %v", deadline)
	}
	if won, hd := s.Claim(addr, "bob", time.Minute); won {
		t.Fatal("second claim on a live lease must lose")
	} else if hd.Sub(deadline) > time.Second || deadline.Sub(hd) > time.Second {
		t.Fatalf("loser's deadline %v does not echo the holder's %v", hd, deadline)
	}
	if owner, _, ok := s.ClaimHolder(addr); !ok || owner != "alice" {
		t.Fatalf("holder: %q %v, want alice", owner, ok)
	}

	// A non-owner release is a no-op; the owner's releases.
	s.Unclaim(addr, "bob")
	if _, _, ok := s.ClaimHolder(addr); !ok {
		t.Fatal("bob stripped alice's lease")
	}
	s.Unclaim(addr, "alice")
	if _, _, ok := s.ClaimHolder(addr); ok {
		t.Fatal("lease survived its owner's release")
	}

	// Crash-safety: an expired lease is reclaimable by anyone.
	if won, _ := s.Claim(addr, "crasher", time.Millisecond); !won {
		t.Fatal("fresh claim must win")
	}
	time.Sleep(5 * time.Millisecond)
	if won, _ := s.Claim(addr, "heir", time.Minute); !won {
		t.Fatal("expired lease must be reclaimable")
	}
	if owner, _, ok := s.ClaimHolder(addr); !ok || owner != "heir" {
		t.Fatalf("holder after reclaim: %q %v, want heir", owner, ok)
	}
}

// mapBackend is an in-memory remote tier for Tiered tests.
type mapBackend struct {
	mu   sync.Mutex
	m    map[string][]float64
	down bool
}

func (b *mapBackend) Load(_ context.Context, key string) ([]float64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return nil, false
	}
	v, ok := b.m[key]
	return v, ok
}

func (b *mapBackend) SaveLinked(key string, vals []float64, _ string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return fmt.Errorf("mapBackend: down")
	}
	if b.m == nil {
		b.m = map[string][]float64{}
	}
	b.m[key] = append([]float64(nil), vals...)
	return nil
}

// TestTieredPromotion: a remote hit is written back to local disk, so the
// next miss is a disk hit even with the remote down.
func TestTieredPromotion(t *testing.T) {
	disk, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remote := &mapBackend{m: map[string][]float64{"pt": {4, 5, 6}}}
	tiered := NewTiered(disk, remote, TieredOptions{})

	vals, ok := tiered.Load(bg, "pt")
	if !ok || !reflect.DeepEqual(vals, []float64{4, 5, 6}) {
		t.Fatalf("remote hit: %v %v", vals, ok)
	}
	remote.down = true
	if vals, ok := tiered.Load(bg, "pt"); !ok || !reflect.DeepEqual(vals, []float64{4, 5, 6}) {
		t.Fatalf("promoted entry not served from disk: %v %v", vals, ok)
	}
	st := tiered.Stats()
	if st.RemoteHits != 1 || st.Promotions != 1 || st.DiskHits != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// A miss everywhere reports miss; a SaveLinked publishes to both tiers.
	if _, ok := tiered.Load(bg, "cold"); ok {
		t.Fatal("phantom hit")
	}
	remote.down = false
	if err := tiered.SaveLinked("cold", []float64{7}, ""); err != nil {
		t.Fatal(err)
	}
	if v, ok := remote.Load(bg, "cold"); !ok || v[0] != 7 {
		t.Fatal("save did not reach the remote tier")
	}
	if v, ok := disk.Load(bg, "cold"); !ok || v[0] != 7 {
		t.Fatal("save did not reach disk")
	}
}

// TestTieredRemoteSaveFailureIsBestEffort: a down remote tier never fails
// a Save — the disk write is authoritative, the failure is counted.
func TestTieredRemoteSaveFailureIsBestEffort(t *testing.T) {
	disk, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(disk, &mapBackend{down: true}, TieredOptions{})
	if err := tiered.SaveLinked("pt", []float64{1}, ""); err != nil {
		t.Fatalf("save failed because the REMOTE was down: %v", err)
	}
	if got := tiered.Stats().RemoteSaveErrs; got != 1 {
		t.Fatalf("remote save errors: %d, want 1", got)
	}
	if _, ok := disk.Load(bg, "pt"); !ok {
		t.Fatal("disk write lost")
	}
}

// TestTieredClaimSingleflight: two replicas (separate handles, shared
// pool) miss the same point concurrently. Exactly one wins the solve
// lease; the other waits and is served the winner's published result.
func TestTieredClaimSingleflight(t *testing.T) {
	dir := t.TempDir()
	open := func() *Tiered {
		disk, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewTiered(disk, nil, TieredOptions{LeaseTTL: 10 * time.Second, Poll: 2 * time.Millisecond})
	}
	r1, r2 := open(), open()

	if _, ok := r1.Load(bg, "pt"); ok {
		t.Fatal("cold pool must miss")
	}
	if got := r1.Stats().ClaimsWon; got != 1 {
		t.Fatalf("r1 claims won: %d", got)
	}

	type res struct {
		vals []float64
		ok   bool
	}
	waited := make(chan res, 1)
	go func() {
		v, ok := r2.Load(bg, "pt")
		waited <- res{v, ok}
	}()
	// Let r2 lose the claim and enter its poll loop, then publish.
	for r2.Stats().ClaimsLost == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := r1.SaveLinked("pt", []float64{9, 9}, ""); err != nil {
		t.Fatal(err)
	}
	got := <-waited
	if !got.ok || !reflect.DeepEqual(got.vals, []float64{9, 9}) {
		t.Fatalf("waiter result: %v %v", got.vals, got.ok)
	}
	if st := r2.Stats(); st.WaitHits != 1 || st.ClaimsWon != 0 {
		t.Fatalf("waiter stats: %+v (must be served, not solve)", st)
	}
	// The lease was released on publish.
	if _, _, ok := r1.disk.ClaimHolder(Addr("pt")); ok {
		t.Fatal("lease survived its publish")
	}
}

// publishingRemote is a remote tier whose Load runs publish and then
// reports a miss: it stands in for a peer that solves, publishes and
// releases a key between this replica's disk miss and its claim.
type publishingRemote struct{ publish func() }

func (r publishingRemote) Load(context.Context, string) ([]float64, bool) {
	r.publish()
	return nil, false
}

func (publishingRemote) SaveLinked(string, []float64, string) error { return nil }

// TestTieredClaimRechecksAfterWin: a replica whose disk read missed
// before a peer published and released the key must not solve it again
// when it then wins the released claim. r1's remote tier forces the
// interleaving: after r1's disk miss, its Load has r2 miss, claim, solve
// and publish the key, so the lease r1 then wins guards a key already on
// disk.
func TestTieredClaimRechecksAfterWin(t *testing.T) {
	dir := t.TempDir()
	open := func(remote Remote) *Tiered {
		disk, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewTiered(disk, remote, TieredOptions{LeaseTTL: 10 * time.Second, Poll: 2 * time.Millisecond})
	}
	r2 := open(nil)
	r1 := open(publishingRemote{publish: func() {
		if _, ok := r2.Load(bg, "pt"); ok {
			t.Error("cold pool must miss")
		}
		if err := r2.SaveLinked("pt", []float64{9, 9}, ""); err != nil {
			t.Error(err)
		}
	}})
	got, ok := r1.Load(bg, "pt")
	if !ok || !reflect.DeepEqual(got, []float64{9, 9}) {
		t.Fatalf("r1 after r2's publish: %v %v (a miss means solving the key a second time)", got, ok)
	}
	if st := r1.Stats(); st.ClaimsWon != 0 || st.WaitHits != 1 || st.DiskHits != 0 {
		t.Fatalf("r1 stats: %+v (must be served by the re-read, not solve)", st)
	}
	if st := r2.Stats(); st.ClaimsWon != 1 {
		t.Fatalf("r2 stats: %+v (r2 must have claimed and solved)", st)
	}
	if _, _, ok := r1.disk.ClaimHolder(Addr("pt")); ok {
		t.Fatal("the re-check left its claim behind")
	}
}

// TestTieredCrashReclaim: a claimant that dies mid-solve must not wedge
// the pool — its lease expires and a waiter takes over the solve.
func TestTieredCrashReclaim(t *testing.T) {
	dir := t.TempDir()
	open := func(ttl time.Duration) *Tiered {
		disk, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewTiered(disk, nil, TieredOptions{LeaseTTL: ttl, Poll: 2 * time.Millisecond})
	}
	crasher := open(40 * time.Millisecond)
	heir := open(40 * time.Millisecond)

	if _, ok := crasher.Load(bg, "pt"); ok {
		t.Fatal("cold pool must miss")
	}
	// crasher now holds the lease and "dies": it never Saves.
	start := time.Now()
	if _, ok := heir.Load(bg, "pt"); ok {
		t.Fatal("heir must get the miss (and the solve) after the lease expires")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("reclaim took %v — the no-stall bound failed", waited)
	}
	st := heir.Stats()
	if st.ClaimsLost == 0 || st.Reclaims == 0 {
		t.Fatalf("heir stats: %+v (expected a lost claim then a reclaim)", st)
	}
	if st.ClaimsWon == 0 && st.WaitTimeouts == 0 {
		t.Fatalf("heir stats: %+v (must end holding the lease or degrading to a local solve)", st)
	}
}

// TestPruneUnderFaultyConcurrentWriters tortures the reader/writer/pruner
// interplay through the fault injector: 16 writers publishing through a
// flaky backend while Prune runs continuously. The invariant is the
// corruption-tolerance rule end to end — every Load returns either the
// exact stored values or a miss, never torn data, and nothing panics.
func TestPruneUnderFaultyConcurrentWriters(t *testing.T) {
	disk, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	flaky := faultinject.NewBackend(disk, faultinject.Config{
		Seed: 7, ResetProb: 0.15, HTTP500Prob: 0.1, TimeoutProb: 0.05, Latency: 100 * time.Microsecond,
	})

	valsFor := func(w, i int) []float64 {
		return []float64{float64(w), float64(i), float64(w*1000 + i)}
	}
	const writers, rounds = 16, 40
	var writerWG, prunerWG sync.WaitGroup
	stop := make(chan struct{})
	prunerWG.Add(1)
	go func() { // continuous pruner: evicts everything it can, repeatedly
		defer prunerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				disk.Prune(1) // budget of 1 byte: maximum eviction pressure
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("w%d-i%d", w, i)
				flaky.SaveLinked(key, valsFor(w, i), "") // errors are injected; ignore
				if vals, ok := flaky.Load(bg, key); ok && !reflect.DeepEqual(vals, valsFor(w, i)) {
					t.Errorf("torn read: %s gave %v", key, vals)
					return
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	prunerWG.Wait()

	// Post-mortem: whatever survived eviction must decode exactly.
	for w := 0; w < writers; w++ {
		for i := 0; i < rounds; i++ {
			key := fmt.Sprintf("w%d-i%d", w, i)
			if vals, ok := disk.Load(bg, key); ok && !reflect.DeepEqual(vals, valsFor(w, i)) {
				t.Fatalf("surviving entry %s corrupt: %v", key, vals)
			}
		}
	}
	if st := disk.Stats(); st.Corrupt != 0 {
		t.Fatalf("store reported %d corrupt entries under clean (if flaky) writers", st.Corrupt)
	}
}
