package graph

import (
	"math"
	"math/bits"
)

// The bucket-queue traversal below is the Δ-stepping-style sibling of the
// heap Dijkstra in dijkstra.go. The Garg–Könemann solver rebuilds roughly
// one shortest-path tree per (source, phase); under a near-uniform length
// function — exactly the early- and mid-phase regime of the solver, where
// lengths start at δ/cap and have not yet spread — a monotone bucket queue
// replaces every heap sift (O(log n) with data-dependent branches) with an
// O(1) push/pop on one flat entry arena, which is both cheaper and far
// friendlier to the cache and branch predictor.
//
// Correctness does not depend on the length spread, only the precondition
// delta ≤ min positive arc length: then a node popped from the current
// bucket can never be improved by another node of the same bucket (the
// improving path would need an arc shorter than delta), so every popped
// current entry is final exactly as in the heap traversal. Distances and
// parent arcs therefore agree with Run bit-for-bit whenever shortest paths
// are unique — the same guarantee the repair machinery gives, enforced by
// FuzzBucketMatchesHeap.
//
// Performance depends on the spread only through the overflow list. An
// occupancy bitmap of the resident window lets the drain jump from one
// occupied bucket straight to the next, so a stretch of empty buckets
// costs one bitmap probe per 64 slots, and early-exit targets are
// re-checked only at a jump or rebase that follows a target's pop. A
// distance range wider than the window costs rebases instead: each one
// re-scans the overflow list. That is why callers should prefer the heap
// when max length / min length is large (see LengthRange and the adaptive
// choice in internal/mcf).

// bqWindow is the number of resident bucket slots (a power of two).
// Entries whose bucket lies beyond the resident range go to an overflow
// list and are redistributed when the window runs dry, so memory stays
// O(bqWindow + queued entries) no matter how wide the distance range is.
const bqWindow = 256

// bqOccupancy has one bit per resident slot, set while the slot holds an
// entry. RunBucketed leaves it all zero.
type bqOccupancy [bqWindow / 64]uint64

func (o *bqOccupancy) has(slot int64) bool { return o[slot>>6]&(1<<(slot&63)) != 0 }
func (o *bqOccupancy) set(slot int64)      { o[slot>>6] |= 1 << (slot & 63) }
func (o *bqOccupancy) clear(slot int64)    { o[slot>>6] &^= 1 << (slot & 63) }

// gap returns how many slots lie between slot and the first occupied slot
// at or after it, wrapping past the last slot. Some slot must be occupied.
func (o *bqOccupancy) gap(slot int64) int64 {
	w := slot >> 6
	if m := o[w] >> (slot & 63); m != 0 {
		return int64(bits.TrailingZeros64(m))
	}
	for i := int64(1); i <= int64(len(o)); i++ {
		j := (w + i) & (int64(len(o)) - 1)
		if o[j] != 0 {
			return (j<<6 + int64(bits.TrailingZeros64(o[j])) - slot) & (bqWindow - 1)
		}
	}
	panic("graph: bucket window has no occupied slot")
}

// bqEntry is one queued (node, distance) pair in a bucketQueue's arena.
// next is the arena index of the next-older entry of the same slot, or -1
// at the end of the slot's list.
type bqEntry struct {
	node, next int32
	d          float64
}

// bucketQueue is RunBucketed's working state, allocated by a scratch's
// first RunBucketed, so scratches that only Run carry none. Every entry
// pushed into the resident window during a run is appended to one arena,
// empty again once the run ends, and each slot's entries form a LIFO list
// through it: head[slot] is the slot's newest entry. The occupancy bitmap
// is the only record of which slots hold entries (head is meaningful only
// where its bit is set), so a run that ends early empties the window by
// zeroing four words instead of visiting its slots.
type bucketQueue struct {
	head    [bqWindow]int32
	occ     bqOccupancy
	arena   []bqEntry
	over    []item  // entries beyond the window, in push order
	pending []int32 // early-exit targets not yet settled
}

func (q *bucketQueue) push(slot int64, node int32, d float64) {
	next := int32(-1)
	if q.occ.has(slot) {
		next = q.head[slot]
	} else {
		q.occ.set(slot)
	}
	q.head[slot] = int32(len(q.arena))
	q.arena = append(q.arena, bqEntry{node: node, next: next, d: d})
}

// pop removes and returns the newest entry of an occupied slot.
func (q *bucketQueue) pop(slot int64) (node int32, d float64) {
	e := q.arena[q.head[slot]]
	if e.next < 0 {
		q.occ.clear(slot)
	} else {
		q.head[slot] = e.next
	}
	return e.node, e.d
}

// bqMaxIdx bounds the bucket index a relaxation may produce. Beyond it,
// the int64 conversion of distance/delta would approach overflow (whose
// result is implementation-defined and would silently corrupt the
// traversal order), so the run bails to the heap instead. The bound is
// far below 2^63 to keep the window arithmetic (idx+bqWindow etc.) safe.
const bqMaxIdx = int64(1) << 46

// LengthRange returns the smallest positive and the largest entry of
// length. It is the one O(m) scan callers need to derive a valid bucket
// width (delta ≤ minPos) and to decide heap vs bucket from the spread
// max/minPos. minPos is 0 when no entry is positive.
func LengthRange(length []float64) (minPos, max float64) {
	for _, l := range length {
		if l > 0 && (minPos == 0 || l < minPos) {
			minPos = l
		}
		if l > max {
			max = l
		}
	}
	return minPos, max
}

// RunBucketed computes the same shortest-path tree as Run — source src,
// per-arc lengths, optional early-exit targets — using a monotone bucket
// queue of width delta instead of the 4-ary heap. delta should be positive
// and no larger than the smallest arc length the traversal relaxes;
// LengthRange(length) provides such a value when lengths are positive.
//
// The precondition is self-enforcing: a non-positive (or NaN) delta, a
// relaxed arc shorter than delta (including zero-length arcs, which would
// break the within-bucket finality argument), or a distance so far beyond
// delta that the bucket index would overflow, all make the run bail and
// transparently recompute via Run — results are correct either way, and
// BucketBailed reports the fallback so adaptive callers can stop paying
// for doomed attempts.
//
// Results are read with Dist/Via/Reached exactly as after Run, the
// early-exit contract is identical, and a completed run is a valid basis
// for Repair/RepairStale. When shortest paths are unique the tree is
// bit-identical to the heap path's.
//
// A run costs one O(1) push and pop per queued entry, one jump per
// occupied bucket (a bitmap probe per 64 empty slots skipped), one pass
// over the still-pending targets at each jump or rebase that follows a
// target's pop under early exit, and one overflow rebase (BucketRebases)
// each time the resident window drains while entries wait beyond it.
// Empty buckets are skipped, not visited one by one.
func (d *DijkstraScratch) RunBucketed(src int, length []float64, targets []int32, delta float64) {
	if !(delta > 0) {
		d.bqBailed = true
		d.Run(src, length, targets)
		return
	}
	d.bqBailed = false
	// Any relaxation reaching this distance would produce a bucket index
	// near int64 overflow; treat it as a bail condition below.
	limit := delta * float64(bqMaxIdx)
	d.epoch++
	if d.epoch == 0 { // wrapped: every stale stamp is suddenly "current"
		for i := range d.stamp {
			d.stamp[i], d.tmark[i] = 0, 0
		}
		d.epoch = 1
	}
	e := d.epoch
	c := d.g.csrView()
	if d.bq == nil {
		d.bq = &bucketQueue{arena: make([]bqEntry, 0, d.g.n)}
	}
	q := d.bq
	// Early-exit bookkeeping differs from the heap path: within a bucket,
	// entries pop in arbitrary order and — when an arc shorter than delta
	// sneaks in — a popped node can still improve while its bucket drains.
	// A target therefore counts as settled only once cur has advanced PAST
	// its bucket: every later entry has distance ≥ cur·delta, which
	// exceeds anything in earlier buckets, so no future relaxation can
	// improve it. That keeps early exit exact for any positive delta.
	pending := q.pending[:0]
	for _, t := range targets {
		if d.tmark[t] != e {
			d.tmark[t] = e
			pending = append(pending, t)
		}
	}
	earlyExit := len(pending) > 0
	over := q.over[:0]
	d.bqRebases = 0
	d.dist[src] = 0
	d.via[src] = -1
	d.stamp[src] = e
	// cur is the bucket index being drained; the resident window covers the
	// fixed range [winEnd-bqWindow, winEnd). Entries in bucket ≥ winEnd wait
	// in the overflow list; keeping the boundary FIXED until the window runs
	// dry (rather than sliding it with cur) guarantees every overflow entry
	// sorts strictly after every resident entry, so buckets are still
	// processed in increasing order. Relaxations from bucket cur land in
	// bucket ≥ cur (delta ≤ every arc length), so slots behind cur are empty
	// and the idx&mask slot addressing never collides within the window.
	cur := int64(0)
	winEnd := int64(bqWindow)
	q.push(0, int32(src), 0)
	windowLive := 1
	broke, bailed := false, false
	// settle drops every pending target whose distance now lies in a
	// bucket strictly before cur; returns true when none remain. cur moves
	// only at a jump or a rebase, and a pending target's bucket can fall
	// behind cur only after its current entry pops (the entry holds cur
	// at or below its bucket until then). So settle runs at a jump or
	// rebase only when a pending target popped since the last one
	// (targetPopped), and drops exactly the targets a settle at every
	// jump and rebase would drop, at the same points.
	targetPopped := false
	settle := func() bool {
		targetPopped = false
		w := 0
		for _, tn := range pending {
			if d.stamp[tn] == e && int64(d.dist[tn]/delta) < cur {
				d.tmark[tn] = 0
				continue
			}
			pending[w] = tn
			w++
		}
		pending = pending[:w]
		return w == 0
	}
	for windowLive > 0 || len(over) > 0 {
		if windowLive == 0 {
			// The window ran dry but overflow entries remain: rebase the
			// window onto the smallest overflow bucket and redistribute.
			d.bqRebases++
			minIdx, w := int64(math.MaxInt64), 0
			for _, it := range over {
				if it.d > d.dist[it.node] {
					continue // stale entry; the node improved since the push
				}
				over[w] = it
				w++
				if idx := int64(it.d / delta); idx < minIdx {
					minIdx = idx
				}
			}
			over = over[:w]
			if w == 0 {
				break
			}
			cur, winEnd = minIdx, minIdx+bqWindow
			if targetPopped && settle() {
				broke = true
				break
			}
			w = 0
			for _, it := range over {
				if idx := int64(it.d / delta); idx < winEnd {
					q.push(idx&(bqWindow-1), it.node, it.d)
					windowLive++
				} else {
					over[w] = it
					w++
				}
			}
			over = over[:w]
			continue
		}
		slot := cur & (bqWindow - 1)
		if !q.occ.has(slot) {
			// Jump over the empty stretch to the next occupied bucket.
			// Nothing pops in between, so one settle at the landing bucket
			// drops exactly the targets a settle at each skipped bucket
			// would have.
			cur += q.occ.gap(slot)
			if targetPopped && settle() {
				broke = true
				break
			}
			continue
		}
		u, du := q.pop(slot)
		windowLive--
		if du > d.dist[u] {
			continue // stale entry; the node settled at a smaller distance
		}
		if earlyExit && d.tmark[u] == e {
			targetPopped = true
		}
		for k, end := c.start[u], c.start[u+1]; k < end; k++ {
			v := c.to[k]
			a := c.arc[k]
			l := length[a]
			nd := du + l
			if l < delta || nd >= limit {
				// An arc shorter than the bucket width (ordering argument
				// void) or a distance near index overflow: this traversal
				// cannot finish safely — hand the whole run to the heap.
				bailed = true
				break
			}
			if d.stamp[v] != e || nd < d.dist[v] {
				d.dist[v] = nd
				d.via[v] = a
				d.stamp[v] = e
				if idx := int64(nd / delta); idx < winEnd {
					q.push(idx&(bqWindow-1), v, nd)
					windowLive++
				} else {
					over = append(over, item{node: v, d: nd})
				}
			}
		}
		if bailed {
			break
		}
	}
	// A break abandons queued entries: zeroing the bitmap and emptying the
	// arena leaves the window empty for the next run however this one
	// ended.
	q.occ = bqOccupancy{}
	q.arena = q.arena[:0]
	q.over = over[:0]
	q.pending = pending[:0]
	if bailed {
		// Partial results from this attempt carry the current epoch; Run
		// advances the epoch, so they are invisible to it and the rerun is
		// a clean from-scratch computation with identical semantics.
		d.bqBailed = true
		d.Run(src, length, targets)
		return
	}
	d.complete = !broke
}

// BucketRebases reports how many overflow redistributions the last
// RunBucketed performed. Rebases are the bucket queue's failure mode — a
// wide distance range relative to delta makes the window thrash — so
// adaptive callers (internal/mcf) treat a persistently high count as the
// signal to fall back to the heap.
func (d *DijkstraScratch) BucketRebases() int { return d.bqRebases }

// BucketBailed reports whether the last RunBucketed abandoned the bucket
// traversal (invalid delta, an arc shorter than delta, or a distance near
// bucket-index overflow) and recomputed via Run. The results are correct
// either way; adaptive callers use the flag to stop requesting bucket
// runs the input keeps rejecting.
func (d *DijkstraScratch) BucketBailed() bool { return d.bqBailed }
