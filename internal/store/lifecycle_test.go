package store

import (
	"reflect"
	"testing"
	"time"
)

// TestUnclaimCannotStripSuccessor pins the atomic-release fix: a slow
// ex-claimant whose release interleaves with a successor's reclaim must
// not strip the successor's fresh lease. The hook fires inside Unclaim's
// check window — with the old holder-check-then-remove sequence (the
// check reading the releaser's own stale claim, the remove landing after
// the successor's re-link) this test fails: bob's lease vanishes.
func TestUnclaimCannotStripSuccessor(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	addr := Addr("contended-point")
	if won, _ := s.Claim(addr, "alice", time.Millisecond); !won {
		t.Fatal("alice's claim must win")
	}
	time.Sleep(5 * time.Millisecond) // let alice's lease expire

	// In the release window, bob reclaims the expired lease — exactly the
	// interleaving the invariant covers.
	hooked := false
	s.unclaimHook = func() {
		hooked = true
		if won, _ := s.Claim(addr, "bob", time.Minute); !won {
			t.Error("bob must be able to reclaim the expired lease mid-release")
		}
	}
	s.Unclaim(addr, "alice")
	if !hooked {
		t.Fatal("release never entered its check window — the test exercised nothing")
	}
	owner, deadline, ok := s.ClaimHolder(addr)
	if !ok || owner != "bob" {
		t.Fatalf("after alice's release, holder = %q (ok=%v) — the stale release stripped bob's lease", owner, ok)
	}
	if time.Until(deadline) < 30*time.Second {
		t.Fatalf("bob's lease deadline %v is not his fresh one", deadline)
	}

	// And a plain wrong-owner release with a mid-window successor: the
	// taken file is not ours, so the successor's lease is restored.
	s.unclaimHook = nil
	s.Unclaim(addr, "alice") // bob holds; alice's release must leave it
	if owner, _, ok := s.ClaimHolder(addr); !ok || owner != "bob" {
		t.Fatalf("wrong-owner release disturbed the lease: %q %v", owner, ok)
	}
	s.Unclaim(addr, "bob")
	if _, _, ok := s.ClaimHolder(addr); ok {
		t.Fatal("owner's release must clear the lease")
	}
}

// TestPruneConcurrentSaveRepublish pins the Prune re-verify fix: an entry
// re-saved between Prune's victim selection and its removal pass is
// current again and must survive with its new bytes. Pre-fix, the
// out-of-lock unlink deleted the freshly renamed file while the index
// still listed the entry — a subsequent Load missed (orphaned index
// entry), losing a write that Save had acknowledged.
func TestPruneConcurrentSaveRepublish(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveLinked("pt", []float64{1}, ""); err != nil {
		t.Fatal(err)
	}
	addr := Addr("pt")
	republished := false
	s.pruneHook = func(a string) {
		if a == addr {
			republished = true
			if err := s.SaveAddrLinked(addr, []float64{2, 2}, ""); err != nil {
				t.Errorf("re-save during prune window: %v", err)
			}
		}
	}
	s.Prune(0) // evict everything unpinned
	if !republished {
		t.Fatal("prune never selected the entry — the test exercised nothing")
	}
	vals, ok := s.Load(bg, "pt")
	if !ok || !reflect.DeepEqual(vals, []float64{2, 2}) {
		t.Fatalf("re-published entry lost to the racing prune: %v %v", vals, ok)
	}
	st := s.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries: %d, want 1", st.Entries)
	}
	if st.Evicted != 0 {
		t.Fatalf("evicted: %d, want 0 (the skipped victim must not count)", st.Evicted)
	}
}
