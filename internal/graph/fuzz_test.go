package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzBucketMatchesHeap: on a derived random graph with random lengths,
// the bucket-queue traversal must be bit-identical to the heap Dijkstra —
// full runs and early-exit target runs alike. The fuzzer drives the graph
// shape, the length distribution, the bucket width (any fraction of the
// minimum length, the documented validity range), and the target set.
// After the early-exit run, which abandons queued entries, the same
// scratch must leave a clean window and build an exact full tree from
// another source.
func FuzzBucketMatchesHeap(f *testing.F) {
	f.Add(int64(1), uint8(255), []byte{0})
	f.Add(int64(42), uint8(128), []byte{1, 2, 3})
	f.Add(int64(99), uint8(1), []byte{7, 7, 7, 7})
	f.Add(int64(7), uint8(64), []byte{200, 100, 50, 25, 12, 6})

	f.Fuzz(func(t *testing.T, seed int64, deltaByte uint8, targetBytes []byte) {
		if len(targetBytes) > 64 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(50)
		g := New(n)
		for i := 1; i < n; i++ {
			g.AddLink(rng.Intn(i), i, 1)
		}
		extra := rng.Intn(2 * n)
		for i := 0; i < extra; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddLink(u, v, 1)
			}
		}
		lens := make([]float64, g.NumArcs())
		for a := range lens {
			lens[a] = 0.05 + rng.Float64()
			if rng.Intn(8) == 0 {
				lens[a] *= 1000 // occasional wide spread to force rebases
			}
		}
		minLen, _ := LengthRange(lens)
		// deltaByte sweeps (0, 2·minLen]: values ≤ minLen take the fast
		// bucket path, larger ones force the short-arc bail-to-heap, and
		// both must stay bit-identical to the heap.
		delta := minLen * (float64(deltaByte) + 1) / 128
		src := rng.Intn(n)
		dh, db := g.NewDijkstraScratch(), g.NewDijkstraScratch()
		dh.Run(src, lens, nil)
		db.RunBucketed(src, lens, nil, delta)
		compareTrees(t, "full run", g, dh, db)
		// Early-exit run: targets and their root paths must be final.
		var targets []int32
		for _, b := range targetBytes {
			if v := int(b) % n; v != src {
				targets = append(targets, int32(v))
			}
		}
		if len(targets) == 0 {
			return
		}
		db.RunBucketed(src, lens, targets, delta)
		checkTargets(t, "early exit", g, src, targets, dh, db)
		assertCleanWindow(t, "after early exit", db)
		src2 := (src + 1 + int(deltaByte)) % n
		dh.Run(src2, lens, nil)
		db.RunBucketed(src2, lens, nil, delta)
		compareTrees(t, "full run after early exit", g, dh, db)
	})
}

// FuzzBucketMatchesOracle: the flat bucket queue must replay the
// slice-per-slot queue it replaced (sliceQueue, the oracle) exactly. On a
// derived random graph whose lengths spread up to 2^23-fold, two scratches
// run the same sequence of full and early-exit runs (up to 64 targets,
// duplicates and the source included), one per queue; after every run
// both must hold the same stamped dist/via bit for bit, the same
// BucketRebases, BucketBailed and completeness, and the flat queue must
// leave a clean window. The bucket width sweeps (0, 2·minLen], so bails
// are covered too.
func FuzzBucketMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(127), uint8(0), []byte{0})
	f.Add(int64(42), uint8(128), uint8(10), []byte{1, 2, 3})
	f.Add(int64(99), uint8(1), uint8(23), []byte{7, 7, 7, 7})
	f.Add(int64(7), uint8(64), uint8(16), []byte{200, 100, 50, 25, 12, 6})
	f.Add(int64(5), uint8(200), uint8(20), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(int64(-1), uint8(1), uint8(23), []byte("1")) // early exit at a rebase

	f.Fuzz(func(t *testing.T, seed int64, deltaByte, spread uint8, targetBytes []byte) {
		if len(targetBytes) > 64 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		g := New(n)
		for i := 1; i < n; i++ {
			g.AddLink(rng.Intn(i), i, 1)
		}
		extra := rng.Intn(3 * n)
		for i := 0; i < extra; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddLink(u, v, 1)
			}
		}
		lens := make([]float64, g.NumArcs())
		for a := range lens {
			lens[a] = 0.05 + rng.Float64()
			if rng.Intn(4) == 0 {
				lens[a] *= math.Ldexp(1, rng.Intn(int(spread%24)+1))
			}
		}
		minLen, _ := LengthRange(lens)
		delta := minLen * (float64(deltaByte) + 1) / 128
		var targets []int32
		for _, b := range targetBytes {
			targets = append(targets, int32(int(b)%n))
		}
		flat, ref := g.NewDijkstraScratch(), g.NewDijkstraScratch()
		var oracle sliceQueue
		src := rng.Intn(n)
		src2 := (src + 1 + int(deltaByte)) % n
		for _, r := range []struct {
			src     int
			targets []int32
		}{{src, nil}, {src, targets}, {src2, nil}, {src2, targets}, {src, targets[len(targets)/2:]}} {
			flat.RunBucketed(r.src, lens, r.targets, delta)
			oracle.run(ref, r.src, lens, r.targets, delta)
			ctx := fmt.Sprintf("src %d, %d targets", r.src, len(r.targets))
			if flat.BucketRebases() != ref.BucketRebases() || flat.BucketBailed() != ref.BucketBailed() || flat.complete != ref.complete {
				t.Fatalf("%s: flat rebases %d bailed %v complete %v; oracle %d %v %v", ctx,
					flat.BucketRebases(), flat.BucketBailed(), flat.complete,
					ref.BucketRebases(), ref.BucketBailed(), ref.complete)
			}
			for v := 0; v < n; v++ {
				if flat.Reached(v) != ref.Reached(v) ||
					math.Float64bits(flat.Dist(v)) != math.Float64bits(ref.Dist(v)) || flat.Via(v) != ref.Via(v) {
					t.Fatalf("%s: node %d: flat reached %v dist %v via %d; oracle %v %v %d", ctx, v,
						flat.Reached(v), flat.Dist(v), flat.Via(v), ref.Reached(v), ref.Dist(v), ref.Via(v))
				}
			}
			assertCleanWindow(t, ctx, flat)
		}
	})
}

// FuzzRepairMatchesRebuild: arbitrary increase-only length evolutions on a
// derived random graph must keep Repair bit-identical to a from-scratch
// Dijkstra. The fuzzer drives which arcs grow, by how much, and how the
// growth is batched; seeds mirror the oracle-test corpus.
func FuzzRepairMatchesRebuild(f *testing.F) {
	f.Add(int64(42), []byte{1, 2, 3, 200, 17, 5})
	f.Add(int64(99), []byte{0, 0, 0, 0})
	f.Add(int64(7), []byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 9})
	f.Add(int64(53), []byte{10, 250, 3, 77, 77, 77, 200, 1})

	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) == 0 || len(ops) > 512 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(40)
		g := New(n)
		for i := 1; i < n; i++ {
			g.AddLink(rng.Intn(i), i, 1)
		}
		extra := rng.Intn(2 * n)
		for i := 0; i < extra; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddLink(u, v, 1)
			}
		}
		m := g.NumArcs()
		lens := make([]float64, m)
		for a := range lens {
			lens[a] = 0.1 + rng.Float64()
		}
		src := rng.Intn(n)
		d := g.NewDijkstraScratch()
		d.Run(src, lens, nil)
		// Each op byte grows one arc; every 4th op closes a batch and
		// checks the repaired tree against a rebuild.
		var changed []int32
		flush := func() {
			if len(changed) == 0 {
				return
			}
			if !d.Repair(lens, changed) {
				t.Fatal("repair refused a complete tree")
			}
			dist, via := g.Dijkstra(src, lens)
			for v := 0; v < n; v++ {
				if d.Dist(v) != dist[v] {
					t.Fatalf("dist[%d]: repair %v, rebuild %v", v, d.Dist(v), dist[v])
				}
				if d.Via(v) != via[v] {
					t.Fatalf("via[%d]: repair %d, rebuild %d", v, d.Via(v), via[v])
				}
			}
			changed = changed[:0]
		}
		for i, op := range ops {
			a := int32(int(op) % m)
			lens[a] *= 1 + float64(op%7)/10 + 0.01
			changed = append(changed, a)
			if i%4 == 3 {
				flush()
			}
		}
		flush()
	})
}
