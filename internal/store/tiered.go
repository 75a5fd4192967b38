package store

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/trace"
)

// Remote is the contract a Tiered remote tier must honor — in practice
// the remotestore client speaking to a peer replica. Load returns the
// values stored under a key, false on any failure (a remote surfaces
// absence, never wrong data); when ctx holds a sampled trace span the
// remote may forward it, so the peer's spans join the caller's trace.
// SaveLinked publishes values with the parent key whose result
// warm-started them ("" for none). Both must be safe for concurrent use.
type Remote interface {
	Load(ctx context.Context, key string) ([]float64, bool)
	SaveLinked(key string, vals []float64, parentKey string) error
}

// TieredOptions configures a Tiered backend's claim-based singleflight.
type TieredOptions struct {
	// LeaseTTL enables cross-replica claims: before solving a missed key,
	// the replica publishes a claim with this lease; peers sharing the
	// pool wait for the result instead of duplicating the solve, and a
	// crashed claimant's lease expires so waiters reclaim it. 0 disables
	// claims (every replica solves its own misses). The TTL must comfortably
	// exceed a worst-case point solve — an expired-but-alive claimant only
	// costs a duplicate solve, never wrong data.
	LeaseTTL time.Duration
	// Poll is the claim-wait probe interval (default 25ms).
	Poll time.Duration
	// Owner identifies this replica on claims (default "host/pid").
	Owner string
}

// claimWaitCycles bounds how many consecutive lost-claim leases a Load
// waits out before degrading to a local solve. The bound is the no-stall
// guarantee: a Load blocks at most claimWaitCycles lease TTLs.
const claimWaitCycles = 2

// Tiered chains the local disk store with an optional remote tier into
// one scenario.Backend: reads go disk first, then remote (a remote hit is
// promoted — written back — to disk); writes go to disk, best-effort to
// the remote, and release any claim held on the key. With a LeaseTTL,
// misses coordinate through claim leases so a cold point is solved once
// fleet-wide even when many replicas (or many goroutines in one process)
// miss it concurrently — and a crashed claimant never wedges anyone,
// because leases expire.
//
// The degradation ladder is strict: remote failure → disk; disk miss →
// claim wait; claim churn or lease expiry → local solve. Every rung
// degrades toward "solve it yourself", which is always correct under the
// cache-key invariant, so a flaky fleet costs latency and duplicate work,
// never wrong bytes and never a stall.
type Tiered struct {
	disk   *Store
	remote Remote
	opt    TieredOptions

	mu    sync.Mutex
	stats TieredStats
}

// TieredStats snapshots a Tiered backend's routing and claim activity.
type TieredStats struct {
	DiskHits   int64 // served from the local store
	RemoteHits int64 // served from the remote tier
	Misses     int64 // served from neither; caller solves
	Promotions int64 // remote hits written back to disk
	// PromoteErrs counts failed write-backs; the hit is still served.
	PromoteErrs int64
	// RemoteSaveErrs counts failed best-effort remote publications.
	RemoteSaveErrs int64
	ClaimsWon      int64 // leases acquired before solving
	ClaimsLost     int64 // leases another owner held; we waited
	WaitHits       int64 // results that appeared while waiting on a claim
	// Reclaims counts leases that expired under a waiter — crashed or
	// wedged claimants whose work this replica took over.
	Reclaims int64
	// WaitTimeouts counts Loads that exhausted claimWaitCycles and
	// degraded to a local solve.
	WaitTimeouts int64
	// Abandons counts claims released without a result — failed, canceled,
	// or infeasible solves whose lease would otherwise park waiters for a
	// full TTL.
	Abandons int64
}

// Metrics emits the tiered backend's /metrics families in scrape order,
// each with its help text.
func (s TieredStats) Metrics(emit func(name, help string, v int64)) {
	emit("tiered_disk_hits_total", "Tiered reads served by the local disk store.", s.DiskHits)
	emit("tiered_remote_hits_total", "Tiered reads served by the remote tier.", s.RemoteHits)
	emit("tiered_misses_total", "Tiered reads served by neither tier (caller solves).", s.Misses)
	emit("tiered_promotions_total", "Remote hits written back to the local disk store.", s.Promotions)
	emit("tiered_promote_errors_total", "Failed write-backs of remote hits (hit still served).", s.PromoteErrs)
	emit("tiered_remote_save_errors_total", "Failed best-effort remote-tier publications.", s.RemoteSaveErrs)
	emit("claims_won_total", "Claim leases acquired before solving a miss.", s.ClaimsWon)
	emit("claims_lost_total", "Claim leases another replica held; this one waited.", s.ClaimsLost)
	emit("claim_wait_hits_total", "Results that appeared while waiting on a peer's claim.", s.WaitHits)
	emit("claim_wait_timeouts_total", "Claim waits exhausted; the load degraded to a local solve.", s.WaitTimeouts)
	emit("claims_reclaimed_total", "Claim leases that expired under a waiter (crashed claimant).", s.Reclaims)
	emit("claims_abandoned_total", "Claims released without a result (failed or canceled solves).", s.Abandons)
}

// NewTiered wires a tiered backend over the local disk store and an
// optional remote tier (nil for disk-only with claim singleflight).
func NewTiered(disk *Store, remote Remote, opt TieredOptions) *Tiered {
	if opt.Poll <= 0 {
		opt.Poll = 25 * time.Millisecond
	}
	if opt.Owner == "" {
		host, _ := os.Hostname()
		opt.Owner = fmt.Sprintf("%s/%d", host, os.Getpid())
	}
	return &Tiered{disk: disk, remote: remote, opt: opt}
}

func (t *Tiered) count(f func(*TieredStats)) {
	t.mu.Lock()
	f(&t.stats)
	t.mu.Unlock()
}

// Load implements scenario.Backend over the tiers. A false return means
// the caller should solve — and, when claims are enabled, that this
// replica holds the solve lease (or waiting it out was exhausted). When
// ctx holds a sampled trace span, every rung of the degradation ladder
// records a span — disk read, peer read (ctx is forwarded to the remote
// tier so its spans join the same trace), and claim-lease waits with
// their outcome; on the unsampled path the span calls are inert.
func (t *Tiered) Load(ctx context.Context, key string) ([]float64, bool) {
	addr := Addr(key)
	dsp := trace.StartSpan(ctx, "tier.disk")
	if vals, ok := t.disk.LoadAddr(addr); ok {
		dsp.Attr("outcome", "hit")
		dsp.End()
		t.count(func(s *TieredStats) { s.DiskHits++ })
		return vals, true
	}
	dsp.Attr("outcome", "miss")
	dsp.End()
	if t.remote != nil {
		psp := trace.StartSpan(ctx, "tier.peer")
		vals, ok := t.remote.Load(ctx, key)
		if ok {
			psp.Attr("outcome", "hit")
			psp.End()
			// Write-back promotion: the next miss on this replica (or any
			// pool peer) is a disk hit even if the remote is down by then.
			if err := t.disk.SaveAddrLinked(addr, vals, ""); err != nil {
				t.count(func(s *TieredStats) { s.RemoteHits++; s.PromoteErrs++ })
			} else {
				t.count(func(s *TieredStats) { s.RemoteHits++; s.Promotions++ })
			}
			return vals, true
		}
		psp.Attr("outcome", "miss")
		psp.End()
	}
	if t.opt.LeaseTTL <= 0 {
		t.count(func(s *TieredStats) { s.Misses++ })
		return nil, false
	}
	// Claim-based singleflight: win the lease and solve, or wait for the
	// holder's result. Both waiting and reclaiming are bounded, so this
	// path can never stall a solve indefinitely.
	csp := trace.StartSpan(ctx, "claim.wait")
	defer csp.End()
	for cycle := 0; cycle < claimWaitCycles; cycle++ {
		if cycle > 0 {
			// A previous holder may have published between our last poll and
			// now; re-check before contending for the lease.
			if vals, ok := t.disk.LoadAddr(addr); ok {
				csp.Attr("outcome", "wait-hit")
				t.count(func(s *TieredStats) { s.WaitHits++ })
				return vals, true
			}
		}
		won, deadline := t.disk.Claim(addr, t.opt.Owner, t.opt.LeaseTTL)
		if won {
			// A holder may have published and released between this
			// replica's miss and its claim. A holder publishes before it
			// releases, so one fresh read after winning sees that result;
			// solving instead would solve the key twice fleet-wide.
			if vals, ok := t.disk.LoadAddr(addr); ok {
				t.disk.Unclaim(addr, t.opt.Owner)
				csp.Attr("outcome", "wait-hit")
				t.count(func(s *TieredStats) { s.WaitHits++ })
				return vals, true
			}
			csp.Attr("outcome", "claimed")
			t.count(func(s *TieredStats) { s.ClaimsWon++; s.Misses++ })
			return nil, false
		}
		t.count(func(s *TieredStats) { s.ClaimsLost++ })
		released := false
		for time.Now().Before(deadline) {
			time.Sleep(t.opt.Poll)
			if vals, ok := t.disk.LoadAddr(addr); ok {
				csp.Attr("outcome", "wait-hit")
				t.count(func(s *TieredStats) { s.WaitHits++ })
				return vals, true
			}
			if _, _, ok := t.disk.ClaimHolder(addr); !ok {
				// The holder released without publishing (its solve failed):
				// stop waiting and contend for the lease ourselves.
				released = true
				break
			}
		}
		if !released {
			// The lease ran out under us: the claimant crashed or wedged.
			t.count(func(s *TieredStats) { s.Reclaims++ })
		}
	}
	csp.Attr("outcome", "wait-timeout")
	t.count(func(s *TieredStats) { s.WaitTimeouts++; s.Misses++ })
	return nil, false
}

// SaveLinked publishes to disk, best-effort to the remote tier, and
// releases this replica's claim on the key (waiters see the result on
// their next poll). The parent content-address link rides along to both
// tiers — the remotestore client carries it inside the TBRS body. The
// disk write's error is the authoritative one; remote failures are
// counted, never raised — mirroring the cache's durability-is-best-
// effort rule.
func (t *Tiered) SaveLinked(key string, vals []float64, parentKey string) error {
	err := t.disk.SaveLinked(key, vals, parentKey)
	if t.remote != nil {
		if rerr := t.remote.SaveLinked(key, vals, parentKey); rerr != nil {
			t.count(func(s *TieredStats) { s.RemoteSaveErrs++ })
		}
	}
	if t.opt.LeaseTTL > 0 {
		t.disk.Unclaim(Addr(key), t.opt.Owner)
	}
	return err
}

// Abandon releases this replica's claim on a key whose solve produced no
// result — it errored, was canceled, or the point was infeasible.
// SaveLinked never runs for such a solve, so without this release the
// claim would park every fleet peer waiting on the key for the full lease
// TTL. Unclaim is owner-verified, so abandoning a claim this replica does
// not hold (a wait-timeout miss, or a lease a successor reclaimed) is a
// safe no-op, and only a released claim counts.
func (t *Tiered) Abandon(key string) {
	if t.opt.LeaseTTL <= 0 {
		return
	}
	if t.disk.Unclaim(Addr(key), t.opt.Owner) {
		t.count(func(s *TieredStats) { s.Abandons++ })
	}
}

// Stats snapshots the tiered backend's counters.
func (t *Tiered) Stats() TieredStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}
