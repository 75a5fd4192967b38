package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Claims are the store's crash-safe cross-replica singleflight primitive.
// Before solving a missed point, a replica publishes a claim — a small
// file under <dir>/claims/<addr> naming the claimant and a lease deadline
// — so every other replica sharing the pool can wait for the result
// instead of solving the same point. The lease is what makes the scheme
// crash-safe: a claimant that dies mid-solve simply stops renewing
// nothing; once its deadline passes, any waiter reclaims the lease and
// solves. A claim can therefore delay work, never wedge it.
//
// Acquisition is atomic via link(2): the claim is written to a temp file
// and hard-linked into place, which succeeds for exactly one racer when
// the name is absent. Reclaiming an expired lease (remove + re-link) is
// intentionally weaker: two replicas racing a reclaim can, in the worst
// interleaving, both believe they won and both solve. Under the cache-key
// invariant both compute identical bytes, so the race costs duplicate
// work, never wrong data — the same last-writer-wins rule Save already
// lives by.

// claimsDir is the per-pool directory holding in-flight claims. Its files
// are invisible to the entry index (Open skips non-shard directories).
const claimsDir = "claims"

func (s *Store) claimPath(addr string) string {
	return filepath.Join(s.dir, claimsDir, addr)
}

// Claim tries to acquire the solve lease for addr on behalf of owner.
// won=true means the caller holds the lease until deadline and should
// solve, publish via SaveLinked/SaveAddrLinked, and Unclaim. won=false means another
// owner holds it; deadline is when that lease expires (the longest a
// waiter should poll before reclaiming). Any filesystem failure degrades
// to won=true — when claims cannot be coordinated, solving locally is
// always safe, only deduplication is lost.
func (s *Store) Claim(addr, owner string, ttl time.Duration) (won bool, deadline time.Time) {
	dir := filepath.Join(s.dir, claimsDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return true, time.Now().Add(ttl)
	}
	for attempt := 0; attempt < 3; attempt++ {
		ours := time.Now().Add(ttl)
		tmp, err := os.CreateTemp(dir, ".tmp-*")
		if err != nil {
			return true, ours
		}
		_, werr := fmt.Fprintf(tmp, "%s\n%d\n", owner, ours.UnixNano())
		cerr := tmp.Close()
		if werr != nil || cerr != nil {
			os.Remove(tmp.Name())
			return true, ours
		}
		linkErr := os.Link(tmp.Name(), s.claimPath(addr))
		os.Remove(tmp.Name())
		if linkErr == nil {
			return true, ours
		}
		// Someone holds the name. A live lease loses the race; an expired
		// or unreadable one is a crashed claimant — clear it and retry.
		_, hd, ok := s.ClaimHolder(addr)
		if ok && time.Now().Before(hd) {
			return false, hd
		}
		os.Remove(s.claimPath(addr))
	}
	// Pathological churn (claims appearing and expiring faster than we can
	// clear them): solve locally rather than spin.
	return true, time.Now().Add(ttl)
}

// ClaimHolder reports the current claim on addr, if a parseable one
// exists. Callers must still check the deadline: an expired claim is a
// crashed claimant, not an active solve.
func (s *Store) ClaimHolder(addr string) (owner string, deadline time.Time, ok bool) {
	return readClaim(s.claimPath(addr))
}

// readClaim parses the claim file at path ("owner\ndeadline-nanos\n").
func readClaim(path string) (owner string, deadline time.Time, ok bool) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return "", time.Time{}, false
	}
	lines := strings.SplitN(strings.TrimSpace(string(buf)), "\n", 2)
	if len(lines) != 2 {
		return "", time.Time{}, false
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(lines[1]), 10, 64)
	if err != nil {
		return "", time.Time{}, false
	}
	return lines[0], time.Unix(0, ns), true
}

// unclaimSeq makes each release's private rename target unique within the
// process; the pid in the name distinguishes processes sharing a pool.
var unclaimSeq atomic.Int64

// Unclaim releases addr's claim if owner still holds it. Releasing a
// claim another owner reclaimed in the meantime must be a no-op — a slow
// ex-claimant cannot strip a successor's lease.
//
// Release is atomic: the claim file is renamed to a private name first
// (taking whatever lease currently holds the name out of circulation in
// one step), THEN its owner is verified, and it is deleted only if it was
// ours. A holder-check-then-remove sequence would race: between the check
// reading our own stale claim and the remove, a successor can reclaim the
// expired lease, and the remove then deletes the successor's fresh claim
// unseen. With rename-first, the file we verify is exactly the file we
// took; a successor's lease renamed by mistake is put back via link(2)
// (which refuses to clobber an even newer claim).
func (s *Store) Unclaim(addr, owner string) {
	path := s.claimPath(addr)
	priv := filepath.Join(s.dir, claimsDir,
		fmt.Sprintf(".tmp-rel-%d-%d", os.Getpid(), unclaimSeq.Add(1)))
	if err := os.Rename(path, priv); err != nil {
		return // no claim to release (or lost the race to one)
	}
	if s.unclaimHook != nil {
		s.unclaimHook()
	}
	holder, _, ok := readClaim(priv)
	if ok && holder == owner {
		os.Remove(priv)
		return
	}
	// Not ours: a successor's live lease. Restore it — unless an even
	// newer claim took the name in the window, in which case our copy is
	// stale and is simply dropped (duplicate work at worst, never a
	// stripped lease plus a wedge: the displaced claimant still solves).
	os.Link(priv, path)
	os.Remove(priv)
}
