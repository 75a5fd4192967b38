package graph

import (
	"math"
	"math/bits"
)

// sliceQueue is the slice-per-slot bucket queue RunBucketed used before
// its entry arena: one growable stack per resident slot, emptied slot by
// slot after an early exit or a bail, and a re-check of every pending
// target at every jump and rebase. run is that traversal kept verbatim as
// the oracle FuzzBucketMatchesOracle holds the flat queue to: same stamped
// dist/via, rebases, bail flag and completeness, bit for bit.
type sliceQueue struct {
	slots   [][]item
	occ     bqOccupancy
	over    []item
	pending []int32
}

func (q *sliceQueue) run(d *DijkstraScratch, src int, length []float64, targets []int32, delta float64) {
	if !(delta > 0) {
		d.bqBailed = true
		d.Run(src, length, targets)
		return
	}
	d.bqBailed = false
	limit := delta * float64(bqMaxIdx)
	d.epoch++
	if d.epoch == 0 {
		for i := range d.stamp {
			d.stamp[i], d.tmark[i] = 0, 0
		}
		d.epoch = 1
	}
	e := d.epoch
	c := d.g.csrView()
	pending := q.pending[:0]
	for _, t := range targets {
		if d.tmark[t] != e {
			d.tmark[t] = e
			pending = append(pending, t)
		}
	}
	earlyExit := len(pending) > 0
	if q.slots == nil {
		q.slots = make([][]item, bqWindow)
	}
	slots, over, occ := q.slots, q.over[:0], &q.occ
	d.bqRebases = 0
	d.dist[src] = 0
	d.via[src] = -1
	d.stamp[src] = e
	cur := int64(0)
	winEnd := int64(bqWindow)
	slots[0] = append(slots[0][:0], item{node: int32(src), d: 0})
	occ.set(0)
	windowLive := 1
	broke, bailed := false, false
	settle := func() bool {
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
			d.bqRebases++
			minIdx, w := int64(math.MaxInt64), 0
			for _, it := range over {
				if it.d > d.dist[it.node] {
					continue
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
			if earlyExit && settle() {
				broke = true
				break
			}
			w = 0
			for _, it := range over {
				if idx := int64(it.d / delta); idx < winEnd {
					slot := idx & (bqWindow - 1)
					slots[slot] = append(slots[slot], it)
					occ.set(slot)
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
		s := &slots[slot]
		if len(*s) == 0 {
			cur += occ.gap(slot)
			if earlyExit && settle() {
				broke = true
				break
			}
			continue
		}
		it := (*s)[len(*s)-1]
		*s = (*s)[:len(*s)-1]
		if len(*s) == 0 {
			occ.clear(slot)
		}
		windowLive--
		if it.d > d.dist[it.node] {
			continue
		}
		for k, end := c.start[it.node], c.start[it.node+1]; k < end; k++ {
			v := c.to[k]
			a := c.arc[k]
			l := length[a]
			nd := it.d + l
			if l < delta || nd >= limit {
				bailed = true
				break
			}
			if d.stamp[v] != e || nd < d.dist[v] {
				d.dist[v] = nd
				d.via[v] = a
				d.stamp[v] = e
				if idx := int64(nd / delta); idx < winEnd {
					slot := idx & (bqWindow - 1)
					slots[slot] = append(slots[slot], item{node: v, d: nd})
					occ.set(slot)
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
	if broke || bailed {
		for w, m := range occ {
			for ; m != 0; m &= m - 1 {
				slot := w<<6 + bits.TrailingZeros64(m)
				slots[slot] = slots[slot][:0]
			}
			occ[w] = 0
		}
	}
	q.over = over[:0]
	q.pending = pending[:0]
	if bailed {
		d.bqBailed = true
		d.Run(src, length, targets)
		return
	}
	d.complete = !broke
}
