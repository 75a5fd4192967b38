package scenario

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/runner"
	"repro/internal/store"
)

// testPoints is a small mixed grid spanning the registries: RRG × mcf,
// hetero (with one infeasible sweep point) × mcf, twocluster × cut, then
// RRG × all-to-all and chunky traffic, and a disconnected instance.
func testPoints() []Point {
	mustTopo := func(spec string) Topology {
		t, err := ParseTopology(spec)
		if err != nil {
			panic(err)
		}
		return t
	}
	return []Point{
		{Topo: mustTopo("rrg:n=20,deg=6,sps=2"), Traffic: Permutation{}, Eval: MCF{},
			Seed: 5, Runs: 2, Epsilon: 0.12},
		{Topo: mustTopo("hetero:nl=6,ns=8,pl=10,ps=6,servers=30,ratio=1"), Traffic: Permutation{}, Eval: MCF{},
			Seed: 6, Runs: 2, Epsilon: 0.12},
		// ratio=3 would put 90 of 30 servers at large switches: infeasible.
		{Topo: mustTopo("hetero:nl=6,ns=8,pl=10,ps=6,servers=30,ratio=3"), Traffic: Permutation{}, Eval: MCF{},
			Seed: 7, Runs: 2, Epsilon: 0.12},
		{Topo: mustTopo("twocluster:n=8,deg=4,cross=6"), Traffic: Bipartite{N1: 8}, Eval: Cut{N1: 8},
			Seed: 8, Runs: 2},
		{Topo: mustTopo("rrg:n=10,deg=4,sps=2"), Traffic: AllToAll{}, Eval: MCF{},
			Seed: 9, Runs: 2, Epsilon: 0.15},
		{Topo: mustTopo("rrg:n=10,deg=4,sps=2"), Traffic: Chunky{Frac: 0.5}, Eval: MCF{},
			Seed: 10, Runs: 2, Epsilon: 0.15},
		// No cross links: every bipartite commodity is unreachable, so
		// mcf measures exactly 0 instead of failing.
		{Topo: mustTopo("twocluster:n=8,deg=4,cross=0"), Traffic: Bipartite{N1: 8}, Eval: MCF{},
			Seed: 11, Runs: 2, Epsilon: 0.15},
	}
}

// disconnectedPoint indexes the disconnected fixture of testPoints.
const disconnectedPoint = 6

// storeBacked returns a cache tiered onto a fresh disk store in a temp
// dir — the configuration topobench -cache-dir wires up.
func storeBacked(t *testing.T, dir string) *Cache {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.SetBackend(st)
	return c
}

// TestScenarioDeterministicAcrossWorkers is the engine's mirror of the
// solver determinism contract: the same grid measured under a process-wide
// worker bound of 1, 2, GOMAXPROCS, and 5 — and with no cache, the
// in-memory cache, or the store-backed tiered cache — must produce
// reflect.DeepEqual results.
// Every run's RNG derives from (seed, run) and reductions are serial in
// index order, so scheduling cannot leak in; the cache tiers only ever
// return what a cold solve would.
func TestScenarioDeterministicAcrossWorkers(t *testing.T) {
	pts := testPoints()
	storeDir := t.TempDir()
	defer runner.SetMaxInFlight(0)
	var ref [][]float64
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 5} {
		runner.SetMaxInFlight(workers)
		for _, mode := range []string{"nocache", "memory", "store"} {
			var cache *Cache
			switch mode {
			case "memory":
				cache = NewCache()
			case "store":
				// A fresh handle on a shared dir each time: later iterations
				// answer from entries persisted by earlier ones.
				cache = storeBacked(t, storeDir)
			}
			e := &Engine{Cache: cache, SkipInfeasible: true}
			vals, err := e.MeasureRuns(pts)
			if err != nil {
				t.Fatalf("workers=%d cache=%s: %v", workers, mode, err)
			}
			if vals[2] != nil {
				t.Fatalf("infeasible point not skipped (workers=%d)", workers)
			}
			if ref == nil {
				checkFixtureValues(t, vals)
				ref = vals
				continue
			}
			if !reflect.DeepEqual(vals, ref) {
				t.Fatalf("workers=%d cache=%s: results differ from serial reference\n got %v\nwant %v",
					workers, mode, vals, ref)
			}
		}
	}
}

// checkFixtureValues checks what testPoints measure: each feasible point
// summarizes to ordered statistics over its runs, the disconnected
// instance to exactly 0 and every other point to a positive value.
func checkFixtureValues(t *testing.T, vals [][]float64) {
	t.Helper()
	for i, runs := range vals {
		if runs == nil {
			continue
		}
		st := Summarize(runs)
		if st.Runs != 2 || !(st.Min <= st.Mean && st.Mean <= st.Max) || st.Std < 0 {
			t.Errorf("point %d: malformed stat %+v", i, st)
		}
		for run, v := range runs {
			if (i == disconnectedPoint) != (v == 0) {
				t.Errorf("point %d run %d measured %v", i, run, v)
			}
		}
	}
}

// TestMaxAtFull pins the sizing search: it returns hi when every size
// passes, lo−1 when lo already fails, and otherwise the largest passing
// size, probing only sizes in [lo, hi].
func TestMaxAtFull(t *testing.T) {
	e := &Engine{Cache: NewCache()}
	point := func(size int) Point {
		if size < 2 || size > 9 {
			t.Fatalf("probed size %d outside [2, 9]", size)
		}
		return Point{Topo: &RRG{N: 8, Deg: 3, SPS: size}, Traffic: None{}, Eval: ASPL{}, Seed: 1, Runs: 1}
	}
	for _, tc := range []struct {
		name string
		pass func(size int) bool
		want int
	}{
		{"all pass", func(int) bool { return true }, 9},
		{"lo fails", func(int) bool { return false }, 1},
		{"up to 6", func(size int) bool { return size <= 6 }, 6},
	} {
		// An ASPL of 8 switches lies in (1, 8): threshold 0 always passes,
		// threshold 8 never does.
		got, err := e.MaxAtFull(2, 9, func(size int) float64 {
			if tc.pass(size) {
				return 0
			}
			return 8
		}, point)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: MaxAtFull = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestMeasureRunsBuildError: a topology build failure fails the point
// with the builder's error still inspectable through the wrapping.
func TestMeasureRunsBuildError(t *testing.T) {
	boom := errors.New("boom")
	e := &Engine{}
	_, err := e.MeasureRuns([]Point{{Topo: failingTopo{boom}, Traffic: Permutation{}, Eval: MCF{}, Runs: 2}})
	if !errors.Is(err, boom) {
		t.Fatalf("build error lost: %v", err)
	}
}

type failingTopo struct{ err error }

func (failingTopo) Spec() string { return "" }

func (f failingTopo) Build(*rand.Rand) (*graph.Graph, error) { return nil, f.err }

// measurePoint measures one point on an uncached engine.
func measurePoint(t *testing.T, p Point) []float64 {
	t.Helper()
	vals, err := (&Engine{}).MeasureRuns([]Point{p})
	if err != nil {
		t.Fatal(err)
	}
	return vals[0]
}

// TestMeasureRunsStat: a point's runs summarize to ordered statistics
// over every run, with a positive mean.
func TestMeasureRunsStat(t *testing.T) {
	st := Summarize(measurePoint(t, Point{Topo: &RRG{N: 16, Deg: 6, SPS: 3}, Traffic: Permutation{}, Eval: MCF{},
		Seed: 3, Runs: 4, Epsilon: 0.1}))
	if st.Runs != 4 || !(st.Min <= st.Mean && st.Mean <= st.Max) || st.Std < 0 {
		t.Fatalf("malformed stat %+v", st)
	}
	if st.Mean <= 0 {
		t.Fatalf("mean %v", st.Mean)
	}
}

// TestRunsDeterministicAcrossParallelism: the runs of one point, spread
// over four workers, measure exactly what one worker measures.
func TestRunsDeterministicAcrossParallelism(t *testing.T) {
	p := Point{Topo: &RRG{N: 12, Deg: 4, SPS: 2}, Traffic: Permutation{}, Eval: MCF{},
		Seed: 5, Runs: 4, Epsilon: 0.12}
	defer runner.SetMaxInFlight(0)
	runner.SetMaxInFlight(1)
	seq := measurePoint(t, p)
	runner.SetMaxInFlight(4)
	if par := measurePoint(t, p); !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallelism changed results: %v vs %v", seq, par)
	}
}

// TestTrafficKindsMeasurePositive: permutation, all-to-all and chunky
// traffic each load a connected RRG to a positive throughput.
func TestTrafficKindsMeasurePositive(t *testing.T) {
	for _, tr := range []Traffic{Permutation{}, AllToAll{}, Chunky{Frac: 0.5}} {
		runs := measurePoint(t, Point{Topo: &RRG{N: 10, Deg: 4, SPS: 2}, Traffic: tr, Eval: MCF{},
			Seed: 7, Runs: 2, Epsilon: 0.15})
		for run, v := range runs {
			if v <= 0 {
				t.Errorf("%s run %d measured %v", tr.Spec(), run, v)
			}
		}
	}
}

// TestDisconnectedPointIsZero: when no path joins the two clusters, every
// commodity is unreachable and mcf measures exactly 0 instead of failing.
func TestDisconnectedPointIsZero(t *testing.T) {
	for run, v := range measurePoint(t, testPoints()[disconnectedPoint]) {
		if v != 0 {
			t.Errorf("run %d measured %v, want 0", run, v)
		}
	}
}

// TestStoreWarmRestartEqualsColdSolve is the durability clause of the
// cache-key invariant: a second "process" (fresh Cache, fresh store
// handle on the same dir) answers entirely from the store, with values
// reflect.DeepEqual to a cold solve, and without re-solving.
func TestStoreWarmRestartEqualsColdSolve(t *testing.T) {
	pts := testPoints()[:2]
	dir := t.TempDir()

	cold := &Engine{SkipInfeasible: true}
	coldVals, err := cold.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}

	first := storeBacked(t, dir)
	firstVals, err := (&Engine{Cache: first, SkipInfeasible: true}).MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.Stats(); st.Misses != 2 || st.StoreErrs != 0 {
		t.Fatalf("first process stats: %+v", st)
	}

	second := storeBacked(t, dir) // restart: empty memory, warm disk
	secondVals, err := (&Engine{Cache: second, SkipInfeasible: true}).MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	st := second.Stats()
	if st.StoreHits != 2 || st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("second process did not answer from the store: %+v", st)
	}
	if !reflect.DeepEqual(firstVals, coldVals) || !reflect.DeepEqual(secondVals, coldVals) {
		t.Fatalf("warm restart values differ from cold solve:\n cold %v\n first %v\n second %v",
			coldVals, firstVals, secondVals)
	}

	// A store-backed cache holds one tier: re-lookups are served by the
	// store again, never by an in-memory copy, and mutating a returned
	// slice must not poison the store.
	secondVals[0][0] = -1
	thirdVals, err := (&Engine{Cache: second, SkipInfeasible: true}).MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.StoreHits != 4 || st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("re-lookups not served from the store alone: %+v", st)
	}
	if !reflect.DeepEqual(thirdVals, coldVals) {
		t.Fatal("cache tier poisoned through a returned slice")
	}
}

// TestCacheHitEqualsColdSolve is the cache-key invariant made executable:
// a cached result is reflect.DeepEqual to a cold solve of the same point,
// the second measurement actually hits, and a differing spec misses.
func TestCacheHitEqualsColdSolve(t *testing.T) {
	pts := testPoints()[:2]
	cold := &Engine{SkipInfeasible: true}
	coldVals, err := cold.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCache()
	warm := &Engine{Cache: cache, SkipInfeasible: true}
	first, err := warm.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, entries := cacheStats(cache); hits != 0 || misses != 2 || entries != 2 {
		t.Fatalf("after first pass: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
	second, err := warm.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := cacheStats(cache); hits != 2 {
		t.Fatalf("second pass did not hit the cache")
	}
	if !reflect.DeepEqual(first, coldVals) || !reflect.DeepEqual(second, coldVals) {
		t.Fatalf("cached values differ from cold solve:\n cold %v\n first %v\n second %v", coldVals, first, second)
	}

	// A changed spec (different ε) must miss.
	changed := pts[0]
	changed.Epsilon = 0.2
	if _, err := warm.MeasureRuns([]Point{changed}); err != nil {
		t.Fatal(err)
	}
	if _, misses, entries := cacheStats(cache); misses != 3 || entries != 3 {
		t.Fatalf("changed spec did not miss: misses=%d entries=%d", misses, entries)
	}

	// Returned slices are private copies: mutating one must not poison the
	// cache.
	second[0][0] = -1
	third, err := warm.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, coldVals) {
		t.Fatalf("cache entry mutated through a returned slice")
	}
}

func cacheStats(c *Cache) (int64, int64, int) {
	st := c.Stats()
	return st.Hits, st.Misses, st.Entries
}

// TestMemoryTierEvicts: a memory tier with room for one entry stays within
// its budget and counts the eviction a second point causes, and the
// evicted point re-solves to exactly its first values.
func TestMemoryTierEvicts(t *testing.T) {
	pts := testPoints()
	a, b := pts[:1], pts[4:5] // two runs each
	budget := int64(memEntryOverhead + 8*2)
	cache := newCache(budget)
	eng := &Engine{Cache: cache}
	measure := func(p []Point) [][]float64 {
		t.Helper()
		vals, err := eng.MeasureRuns(p)
		if err != nil {
			t.Fatal(err)
		}
		if size := cache.mem.Size(); size > budget {
			t.Fatalf("memory tier holds %d bytes, budget %d", size, budget)
		}
		return vals
	}
	first := measure(a)
	measure(b)
	if st := cache.Stats(); st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("after a second point: %+v, want 1 eviction and 1 entry", st)
	}
	again := measure(a)
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("evicted point was not re-solved: %+v", st)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("re-solve after eviction: %v, first solve %v", again, first)
	}
}

// TestDetailedMatchesScalar pins the two evaluation paths of the mcf
// evaluator against each other: the detailed value equals the scalar
// value, and detailed runs carry usable graphs and results.
func TestDetailedMatchesScalar(t *testing.T) {
	pts := testPoints()[:1]
	e := &Engine{}
	vals, err := e.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	dets, err := e.MeasureDetailed(pts)
	if err != nil {
		t.Fatal(err)
	}
	for run, d := range dets[0] {
		if d.Value != vals[0][run] {
			t.Fatalf("run %d: detailed value %v != scalar %v", run, d.Value, vals[0][run])
		}
		if d.G == nil || d.Res == nil {
			t.Fatalf("run %d: detailed result incomplete", run)
		}
		if d.Res.Throughput != d.Value {
			t.Fatalf("run %d: result throughput %v != value %v", run, d.Res.Throughput, d.Value)
		}
	}
}

// TestAdHocTopologyBypassesCache: topologies with an empty spec (closures
// not in the registry) must evaluate but never populate the cache.
func TestAdHocTopologyBypassesCache(t *testing.T) {
	cache := NewCache()
	e := &Engine{Cache: cache}
	pt := Point{Topo: adHoc{}, Traffic: Permutation{}, Eval: MCF{}, Seed: 3, Runs: 1, Epsilon: 0.15}
	if _, err := e.MeasureRuns([]Point{pt}); err != nil {
		t.Fatal(err)
	}
	if _, _, entries := cacheStats(cache); entries != 0 {
		t.Fatalf("ad-hoc topology cached (%d entries)", entries)
	}
}

type adHoc struct{}

func (adHoc) Spec() string { return "" }

func (adHoc) Build(rng *rand.Rand) (*graph.Graph, error) {
	cfg := hetero.Config{NumLarge: 4, NumSmall: 4, PortsLarge: 6, PortsSmall: 6, Servers: 8,
		ServersPerLarge: -1, ServersPerSmall: -1, ServerRatio: 1}
	return hetero.Build(rng, cfg)
}
