package graph

import "math"

// DijkstraScratch holds reusable state for repeated shortest-path-tree
// computations over one graph. The flow solver runs thousands of Dijkstras
// per solve under an evolving length function; the scratch makes each run
// allocation-free: dist/via validity is tracked with an epoch stamp (no
// O(n) clearing between runs), and the heap and the bucket queue's entry
// arena keep their backing arrays.
//
// A scratch is bound to the graph that created it and must not be used
// after links are added. It is not safe for concurrent use; create one
// scratch per goroutine.
type DijkstraScratch struct {
	g     *Graph
	dist  []float64
	via   []int32
	stamp []uint32 // dist/via valid iff stamp == epoch
	tmark []uint32 // pending-target marker, same epoch discipline
	epoch uint32
	heap  []item

	// complete records whether the last Run settled every reachable node
	// (no early exit), which is the precondition for Repair.
	complete bool
	// Bucket-queue state for RunBucketed (see bucket.go): the queue is
	// allocated by the first RunBucketed and reused after; between runs
	// its occupancy bitmap is all zero.
	bq        *bucketQueue
	bqRebases int
	bqBailed  bool
	// Repair working buffers, allocated on first use and reused after.
	affected  []bool
	childHead []int32
	childNext []int32
	stack     []int32 // nodes marked affected by the current repair
	dfs       []int32 // subtree-marking DFS stack
	chg       []bool  // per-arc changed marks for the list-flavored Repair
}

// NewDijkstraScratch returns a scratch sized for g.
func (g *Graph) NewDijkstraScratch() *DijkstraScratch {
	return &DijkstraScratch{
		g:     g,
		dist:  make([]float64, g.n),
		via:   make([]int32, g.n),
		stamp: make([]uint32, g.n),
		tmark: make([]uint32, g.n),
	}
}

// Run computes the shortest-path tree from src under the per-arc lengths.
// If targets is non-empty, the run stops as soon as every target is
// settled: dist/via are then final for the targets and every node on a
// shortest path to them, but not necessarily for other nodes. Lengths must
// be non-negative. Results are read with Dist/Via/Reached and stay valid
// until the next Run.
func (d *DijkstraScratch) Run(src int, length []float64, targets []int32) {
	d.epoch++
	if d.epoch == 0 { // wrapped: every stale stamp is suddenly "current"
		for i := range d.stamp {
			d.stamp[i], d.tmark[i] = 0, 0
		}
		d.epoch = 1
	}
	e := d.epoch
	c := d.g.csrView()
	pending := 0
	for _, t := range targets {
		if d.tmark[t] != e {
			d.tmark[t] = e
			pending++
		}
	}
	earlyExit := pending > 0
	d.dist[src] = 0
	d.via[src] = -1
	d.stamp[src] = e
	h := heapF{a: d.heap[:0]}
	h.push(item{node: int32(src), d: 0})
	broke := false
	for h.len() > 0 {
		it := h.pop()
		if it.d > d.dist[it.node] {
			continue // stale entry; the node settled at a smaller distance
		}
		if earlyExit && d.tmark[it.node] == e {
			d.tmark[it.node] = 0
			pending--
			if pending == 0 {
				broke = true
				break
			}
		}
		for k, end := c.start[it.node], c.start[it.node+1]; k < end; k++ {
			v := c.to[k]
			a := c.arc[k]
			nd := it.d + length[a]
			if d.stamp[v] != e || nd < d.dist[v] {
				d.dist[v] = nd
				d.via[v] = a
				d.stamp[v] = e
				h.push(item{node: v, d: nd})
			}
		}
	}
	// The break fires before the last target's out-arcs are relaxed, so an
	// empty heap after it does not imply a complete tree.
	d.complete = !broke
	d.heap = h.a
}

// Repair updates the last Run's shortest-path tree after a batch of arc
// length increases, re-relaxing only the subtrees hanging below changed
// tree arcs instead of rebuilding the whole tree. changed lists the arcs
// whose length grew since the tree was last computed (duplicates are fine;
// unchanged arcs in the list are harmless). See RepairStale for the full
// contract; Repair is the list-flavored convenience used by tests and
// fuzzing.
func (d *DijkstraScratch) Repair(length []float64, changed []int32) bool {
	if len(changed) == 0 {
		return d.complete
	}
	if d.chg == nil {
		d.chg = make([]bool, len(d.g.arcs))
	}
	for _, a := range changed {
		d.chg[a] = true
	}
	ok := d.RepairStale(length, func(a int32) bool { return d.chg[a] }, 0)
	for _, a := range changed {
		d.chg[a] = false
	}
	return ok
}

// RepairStale updates the last Run's shortest-path tree after arc length
// increases, implementing the increase-only case of Ramalingam–Reps
// dynamic SSSP:
//
//   - grew reports whether an arc's length has grown since the tree was
//     last computed. It is consulted only for current tree arcs: a changed
//     arc outside the tree cannot invalidate anything — every distance is
//     still achieved by its unchanged tree path, and no path got shorter.
//     Lengths must not have decreased — a shrunken arc can make the
//     repaired tree suboptimal without detection.
//   - Only the subtrees hanging below grown tree arcs are re-relaxed, via
//     a restricted Dijkstra seeded from the unaffected boundary. Nodes
//     outside those subtrees keep their exact distances, so the repaired
//     dist/via agree with a from-scratch Dijkstra bit-for-bit whenever the
//     shortest-path tree is unique (the oracle tests and
//     FuzzRepairMatchesRebuild enforce this).
//   - maxAffected > 0 bounds the stale region the repair is willing to
//     process: if more nodes are affected, RepairStale undoes nothing,
//     returns false, and the caller should rebuild — for large stale
//     regions a fresh Run is cheaper than boundary-seeded re-relaxation.
//
// RepairStale also returns false — leaving the tree untouched — when the
// last Run exited early on targets (the settled region is then unknown, so
// only a full Run can refresh it). After a successful repair the tree is
// again complete and current for the given lengths.
func (d *DijkstraScratch) RepairStale(length []float64, grew func(a int32) bool, maxAffected int) bool {
	if !d.complete {
		return false
	}
	e := d.epoch
	arcs := d.g.arcs
	if d.affected == nil {
		d.affected = make([]bool, d.g.n)
		d.childHead = make([]int32, d.g.n)
		d.childNext = make([]int32, d.g.n)
	}
	// Collect the roots of stale subtrees: heads of grown tree arcs. One
	// O(n) pass over the tree; most solver repairs find only a few.
	dfs := d.dfs[:0]
	for v := 0; v < d.g.n; v++ {
		if d.stamp[v] == e && d.via[v] >= 0 && grew(d.via[v]) {
			dfs = append(dfs, int32(v))
		}
	}
	if len(dfs) == 0 {
		d.dfs = dfs
		return true
	}
	// Bucket tree children (first-child/next-sibling) so subtree marking is
	// a straight DFS. O(n), paid only on repairs that found a stale subtree.
	for v := range d.childHead {
		d.childHead[v] = -1
	}
	for v := 0; v < d.g.n; v++ {
		if d.stamp[v] != e || d.via[v] < 0 {
			continue
		}
		p := arcs[d.via[v]].From
		d.childNext[v] = d.childHead[p]
		d.childHead[p] = int32(v)
	}
	// Mark every node whose tree path crosses a grown tree arc, bailing out
	// once the region exceeds the caller's repair budget.
	touched := d.stack[:0]
	bailed := false
	for len(dfs) > 0 {
		u := dfs[len(dfs)-1]
		dfs = dfs[:len(dfs)-1]
		if d.affected[u] {
			continue
		}
		if maxAffected > 0 && len(touched) >= maxAffected {
			bailed = true
			break
		}
		d.affected[u] = true
		touched = append(touched, u)
		for c := d.childHead[u]; c >= 0; c = d.childNext[c] {
			dfs = append(dfs, c)
		}
	}
	d.dfs = dfs[:0]
	if bailed {
		for _, v := range touched {
			d.affected[v] = false
		}
		d.stack = touched[:0]
		return false
	}
	// Restricted Dijkstra over the affected set, seeded from the unaffected
	// boundary: each affected node's best entry via a settled neighbor.
	c := d.g.csrView()
	h := heapF{a: d.heap[:0]}
	for _, v := range touched {
		d.dist[v] = math.Inf(1)
	}
	for _, v := range touched {
		best := math.Inf(1)
		bestArc := int32(-1)
		for k, end := c.start[v], c.start[v+1]; k < end; k++ {
			u := c.to[k]
			if d.affected[u] || d.stamp[u] != e {
				continue
			}
			in := c.arc[k] ^ 1 // the reverse arc u -> v
			if nd := d.dist[u] + length[in]; nd < best {
				best, bestArc = nd, in
			}
		}
		if bestArc >= 0 {
			d.dist[v] = best
			d.via[v] = bestArc
			h.push(item{node: v, d: best})
		}
	}
	for h.len() > 0 {
		it := h.pop()
		if it.d > d.dist[it.node] || !d.affected[it.node] {
			continue
		}
		d.affected[it.node] = false // settled
		for k, end := c.start[it.node], c.start[it.node+1]; k < end; k++ {
			v := c.to[k]
			if !d.affected[v] {
				continue
			}
			a := c.arc[k]
			nd := it.d + length[a]
			if nd < d.dist[v] {
				d.dist[v] = nd
				d.via[v] = a
				h.push(item{node: v, d: nd})
			}
		}
	}
	// Anything still marked was cut off entirely by the length growth (only
	// possible with +Inf lengths); drop it from the tree.
	for _, v := range touched {
		if d.affected[v] {
			d.affected[v] = false
			d.stamp[v] = e - 1
			d.via[v] = -1
		}
	}
	d.stack = touched[:0]
	d.heap = h.a
	return true
}

// Dist returns the distance of v from the last Run's source, or +Inf if v
// was not reached.
func (d *DijkstraScratch) Dist(v int) float64 {
	if d.stamp[v] != d.epoch {
		return math.Inf(1)
	}
	return d.dist[v]
}

// Via returns the arc used to reach v in the last Run's tree, or -1 for
// the source and unreached nodes.
func (d *DijkstraScratch) Via(v int) int32 {
	if d.stamp[v] != d.epoch {
		return -1
	}
	return d.via[v]
}

// Reached reports whether v was reached by the last Run.
func (d *DijkstraScratch) Reached(v int) bool { return d.stamp[v] == d.epoch }
