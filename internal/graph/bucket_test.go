package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomLenGraph builds a connected-ish random multigraph with n nodes and
// random positive lengths drawn from [lo, hi).
func randomLenGraph(rng *rand.Rand, n int, extra int, lo, hi float64) (*Graph, []float64) {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddLink(rng.Intn(i), i, 1)
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddLink(u, v, 1)
		}
	}
	lens := make([]float64, g.NumArcs())
	for a := range lens {
		lens[a] = lo + (hi-lo)*rng.Float64()
	}
	return g, lens
}

func compareTrees(t *testing.T, ctx string, g *Graph, heap, bucket *DijkstraScratch) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if heap.Dist(v) != bucket.Dist(v) {
			t.Fatalf("%s: dist[%d]: heap %v, bucket %v", ctx, v, heap.Dist(v), bucket.Dist(v))
		}
		if heap.Via(v) != bucket.Via(v) {
			t.Fatalf("%s: via[%d]: heap %d, bucket %d", ctx, v, heap.Via(v), bucket.Via(v))
		}
	}
}

// TestRunBucketedMatchesHeap: full runs over random graphs with random
// lengths must be bit-identical to the heap path (random lengths make
// shortest paths unique with probability 1).
func TestRunBucketedMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(60)
		g, lens := randomLenGraph(rng, n, rng.Intn(3*n), 0.1, 1.1)
		minLen, _ := LengthRange(lens)
		delta := minLen * (0.2 + 0.8*rng.Float64())
		src := rng.Intn(n)
		dh, db := g.NewDijkstraScratch(), g.NewDijkstraScratch()
		dh.Run(src, lens, nil)
		db.RunBucketed(src, lens, nil, delta)
		compareTrees(t, "full", g, dh, db)
		if !db.complete {
			t.Fatal("full bucketed run not marked complete")
		}
	}
}

// TestRunBucketedTargets: the early-exit contract matches the heap path —
// targets (and hence every node on a shortest path to them) are final.
func TestRunBucketedTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(50)
		g, lens := randomLenGraph(rng, n, rng.Intn(2*n), 0.5, 2.0)
		minLen, _ := LengthRange(lens)
		src := rng.Intn(n)
		var targets []int32
		for len(targets) < 1+rng.Intn(4) {
			if v := rng.Intn(n); v != src {
				targets = append(targets, int32(v))
			}
		}
		dh, db := g.NewDijkstraScratch(), g.NewDijkstraScratch()
		dh.Run(src, lens, nil) // full reference run
		db.RunBucketed(src, lens, targets, minLen)
		for _, v := range targets {
			if db.Dist(int(v)) != dh.Dist(int(v)) {
				t.Fatalf("target %d: bucket dist %v, reference %v", v, db.Dist(int(v)), dh.Dist(int(v)))
			}
			// The whole root path must be walkable and final.
			at := int(v)
			for at != src {
				a := db.Via(at)
				if a < 0 {
					t.Fatalf("target %d: root path broken at %d", v, at)
				}
				if db.Dist(at) != dh.Dist(at) {
					t.Fatalf("path node %d: bucket dist %v, reference %v", at, db.Dist(at), dh.Dist(at))
				}
				at = int(g.Arc(int(a)).From)
			}
		}
		// An early-exited bucket run must refuse Repair, like the heap path.
		if db.complete && len(targets) < n-1 {
			// complete can legitimately be true if targets covered the run;
			// only assert the refusal when the run actually broke early.
			continue
		}
		if db.RepairStale(lens, func(int32) bool { return true }, 0) && !db.complete {
			t.Fatal("early-exited bucketed run accepted a repair")
		}
	}
}

// checkTargets requires every target's root path in the early-exited run
// ee to match the full reference tree ref node for node.
func checkTargets(t *testing.T, ctx string, g *Graph, src int, targets []int32, ref, ee *DijkstraScratch) {
	t.Helper()
	for _, v := range targets {
		for at := int(v); at != src; {
			a := ee.Via(at)
			if a < 0 || ee.Dist(at) != ref.Dist(at) || a != ref.Via(at) {
				t.Fatalf("%s: target %d path node %d: bucket %v via %d, reference %v via %d",
					ctx, v, at, ee.Dist(at), a, ref.Dist(at), ref.Via(at))
			}
			at = int(g.Arc(int(a)).From)
		}
	}
}

// TestRunBucketedWideRange: a length spread far beyond the resident window
// forces overflow rebases; results must stay exact, full and early-exit.
func TestRunBucketedWideRange(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(40)
		g, lens := randomLenGraph(rng, n, rng.Intn(n), 1, 2)
		// Stretch a random subset of arcs by up to 10^4: with delta = minLen
		// their relaxations land thousands of buckets out, exercising the
		// overflow path.
		for a := range lens {
			if rng.Intn(3) == 0 {
				lens[a] *= math.Pow(10, 1+3*rng.Float64())
			}
		}
		minLen, _ := LengthRange(lens)
		src := rng.Intn(n)
		dh, db := g.NewDijkstraScratch(), g.NewDijkstraScratch()
		dh.Run(src, lens, nil)
		db.RunBucketed(src, lens, nil, minLen)
		compareTrees(t, "wide", g, dh, db)
		targets := []int32{int32((src + 1) % n), int32((src + n/2) % n), int32(rng.Intn(n))}
		db.RunBucketed(src, lens, targets, minLen)
		checkTargets(t, "wide early exit", g, src, targets, dh, db)
	}
}

// assertCleanWindow requires the bucket queue's resident window to be
// empty: every occupancy word zero (the bitmap is the only record of
// which slots hold entries) and no entry left in the arena.
func assertCleanWindow(t *testing.T, ctx string, d *DijkstraScratch) {
	t.Helper()
	if d.bq == nil {
		t.Fatalf("%s: no bucket queue after a bucketed run", ctx)
	}
	for w, m := range d.bq.occ {
		if m != 0 {
			t.Fatalf("%s: occupancy word %d = %#x", ctx, w, m)
		}
	}
	if n := len(d.bq.arena); n != 0 {
		t.Fatalf("%s: arena holds %d entries", ctx, n)
	}
}

// TestRunBucketedLeavesWindowClean: every way a run can end — completion,
// early exit with entries still queued, a bail to the heap mid-traversal,
// and completion after overflow rebases — must leave the window empty, or
// the next run on the scratch would pop the abandoned entries.
func TestRunBucketedLeavesWindowClean(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g, lens := randomLenGraph(rng, 60, 120, 1, 2)
	minLen, _ := LengthRange(lens)
	ref, d := g.NewDijkstraScratch(), g.NewDijkstraScratch()
	ref.Run(0, lens, nil)

	d.RunBucketed(0, lens, nil, minLen)
	if !d.complete || d.BucketBailed() {
		t.Fatal("full run did not complete on the bucket path")
	}
	compareTrees(t, "full", g, ref, d)
	assertCleanWindow(t, "full", d)

	near := g.Arc(int(g.csrView().arc[0])).To // a neighbour of node 0
	d.RunBucketed(0, lens, []int32{near}, minLen)
	if d.complete {
		t.Fatal("early-exit run did not exit early")
	}
	checkTargets(t, "early exit", g, 0, []int32{near}, ref, d)
	assertCleanWindow(t, "early exit", d)

	short := append([]float64(nil), lens...)
	short[len(short)-1] = minLen / 2
	ref.Run(0, short, nil)
	d.RunBucketed(0, short, nil, minLen)
	if !d.BucketBailed() {
		t.Fatal("an arc shorter than delta did not bail")
	}
	compareTrees(t, "bailed", g, ref, d)
	assertCleanWindow(t, "bailed", d)

	wide := append([]float64(nil), lens...)
	for a := range wide {
		if a%3 == 0 {
			wide[a] *= 1e3
		}
	}
	ref.Run(0, wide, nil)
	d.RunBucketed(0, wide, nil, minLen)
	if d.BucketRebases() == 0 || d.BucketBailed() {
		t.Fatalf("wide run: %d rebases, bailed %v; want rebases on the bucket path", d.BucketRebases(), d.BucketBailed())
	}
	compareTrees(t, "rebasing", g, ref, d)
	assertCleanWindow(t, "rebasing", d)
}

// TestRunBucketedReuse: one scratch must survive interleaved heap and
// bucket runs (the solver switches per phase) and repairs after either.
func TestRunBucketedReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g, lens := randomLenGraph(rng, 40, 60, 0.2, 1.0)
	ref := g.NewDijkstraScratch()
	d := g.NewDijkstraScratch()
	for round := 0; round < 30; round++ {
		src := rng.Intn(g.N())
		minLen, _ := LengthRange(lens)
		ref.Run(src, lens, nil)
		if round%2 == 0 {
			d.RunBucketed(src, lens, nil, minLen)
		} else {
			d.Run(src, lens, nil)
		}
		compareTrees(t, "reuse", g, ref, d)
		// Grow a few lengths and repair the (complete) tree in place.
		var changed []int32
		for k := 0; k < 5; k++ {
			a := int32(rng.Intn(g.NumArcs()))
			lens[a] *= 1 + 0.2*rng.Float64()
			changed = append(changed, a)
		}
		if !d.Repair(lens, changed) {
			t.Fatalf("round %d: repair refused after %s run", round, map[bool]string{true: "bucketed", false: "heap"}[round%2 == 0])
		}
		ref.Run(src, lens, nil)
		compareTrees(t, "post-repair", g, ref, d)
	}
}

// TestRunBucketedFallback: a non-positive or NaN delta must transparently
// fall back to the heap path.
func TestRunBucketedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, lens := randomLenGraph(rng, 20, 10, 0.5, 1.5)
	ref := g.NewDijkstraScratch()
	ref.Run(3, lens, nil)
	for _, delta := range []float64{0, -1, math.NaN()} {
		d := g.NewDijkstraScratch()
		d.RunBucketed(3, lens, nil, delta)
		compareTrees(t, "fallback", g, ref, d)
	}
}

// TestLengthRange covers the helper's edge cases.
func TestLengthRange(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		minPos, max float64
	}{
		{nil, 0, 0},
		{[]float64{0, 0}, 0, 0},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{0, 5, 0.5}, 0.5, 5},
	} {
		minPos, max := LengthRange(c.in)
		if minPos != c.minPos || max != c.max {
			t.Fatalf("LengthRange(%v) = (%v, %v), want (%v, %v)", c.in, minPos, max, c.minPos, c.max)
		}
	}
}

// TestRunBucketedZeroLengthArc: a zero-length (or generally < delta) arc
// voids the within-bucket finality argument; the run must detect it, bail
// to the heap, and still produce exact results — including under early
// exit, where an unguarded bucket run would settle the target at a
// non-shortest distance.
func TestRunBucketedZeroLengthArc(t *testing.T) {
	g := New(3)
	g.AddLink(0, 1, 1) // arcs 0,1: len 1
	g.AddLink(0, 2, 1) // arcs 2,3: len 1.5
	g.AddLink(1, 2, 1) // arcs 4,5: len 0
	lens := []float64{1, 1, 1.5, 1.5, 0, 0}
	ref := g.NewDijkstraScratch()
	ref.Run(0, lens, nil)
	if ref.Dist(2) != 1.0 {
		t.Fatalf("reference dist(2) = %v, want 1 (via the zero arc)", ref.Dist(2))
	}
	for _, targets := range [][]int32{nil, {2}} {
		d := g.NewDijkstraScratch()
		d.RunBucketed(0, lens, targets, 1)
		if !d.BucketBailed() {
			t.Fatalf("targets=%v: zero-length arc did not trigger a bail", targets)
		}
		if d.Dist(2) != 1.0 || d.Via(2) != ref.Via(2) {
			t.Fatalf("targets=%v: dist(2)=%v via=%d, want 1.0 via=%d",
				targets, d.Dist(2), d.Via(2), ref.Via(2))
		}
	}
}

// TestRunBucketedIndexOverflowBails: distances so far beyond delta that
// the bucket index would overflow int64 must bail to the heap instead of
// silently corrupting the traversal order. delta is valid here (≤ every
// arc length) — only the spread is hostile, mimicking a mid-phase
// Garg–Könemann rebuild after heavy multiplicative length growth.
func TestRunBucketedIndexOverflowBails(t *testing.T) {
	g := New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(1, 2, 1)
	g.AddLink(2, 3, 1)
	delta := 1e-9
	huge := delta * float64(int64(1)<<50) // idx ≈ 2^50 > bqMaxIdx
	lens := []float64{delta, delta, huge, huge, huge, huge}
	ref := g.NewDijkstraScratch()
	ref.Run(0, lens, nil)
	d := g.NewDijkstraScratch()
	d.RunBucketed(0, lens, nil, delta)
	if !d.BucketBailed() {
		t.Fatal("index-overflow spread did not trigger a bail")
	}
	compareTrees(t, "overflow-bail", g, ref, d)
	// A benign run on the same scratch afterwards must clear the flag.
	uniform := []float64{1, 1, 1, 1, 1, 1}
	ref.Run(0, uniform, nil)
	d.RunBucketed(0, uniform, nil, 1)
	if d.BucketBailed() {
		t.Fatal("bail flag stuck after a clean run")
	}
	compareTrees(t, "post-bail", g, ref, d)
}

// uniformTreeGraph is the GraphTree/uniform benchmark's instance: a
// random 400-node graph (a random spanning tree plus 1,000 random links)
// under near-uniform lengths in [1, 1.01).
func uniformTreeGraph() (*Graph, []float64) {
	rng := rand.New(rand.NewSource(1))
	const n = 400
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddLink(rng.Intn(i), i, 1)
	}
	for i := 0; i < 1000; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.AddLink(u, v, 1)
		}
	}
	lens := make([]float64, g.NumArcs())
	for a := range lens {
		lens[a] = 1 + 0.01*rng.Float64()
	}
	return g, lens
}

// TestRunBucketedAllocs pins the flat queue's allocation profile on the
// GraphTree/uniform instance. A fresh scratch's first full run allocates
// the queue and grows its one arena: a few allocations (4 today) however
// many buckets the run touches, so a sixteenth of the bucket width, which
// spreads the same tree over ~16× the buckets, must stay within the same
// bound. The slice-per-slot queue grew a stack per touched slot and made
// 37 allocations here at either width. Every later run on the scratch,
// full or early-exit, allocates nothing.
func TestRunBucketedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	g, lens := uniformTreeGraph()
	minLen, _ := LengthRange(lens)
	fresh := testing.AllocsPerRun(20, func() { g.NewDijkstraScratch() })
	first := func(delta float64) float64 {
		return testing.AllocsPerRun(20, func() {
			g.NewDijkstraScratch().RunBucketed(0, lens, nil, delta)
		}) - fresh
	}
	const maxFirst = 6
	wide, narrow := first(minLen), first(minLen/16)
	if wide > maxFirst || narrow > maxFirst {
		t.Fatalf("first run allocated %v (delta = minLen) and %v (delta = minLen/16) times, want at most %d",
			wide, narrow, maxFirst)
	}
	d := g.NewDijkstraScratch()
	d.RunBucketed(0, lens, nil, minLen/16)
	if d.BucketBailed() || d.BucketRebases() != 0 {
		t.Fatalf("narrow run: bailed %v, %d rebases; want a plain bucket run", d.BucketBailed(), d.BucketRebases())
	}
	targets := []int32{17, 201, 399}
	if a := testing.AllocsPerRun(20, func() {
		d.RunBucketed(int(targets[0]), lens, nil, minLen)
		d.RunBucketed(0, lens, targets, minLen/16)
	}); a != 0 {
		t.Fatalf("later runs allocated %v times, want 0", a)
	}
}
