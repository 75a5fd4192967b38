package scenario

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/rrg"
	"repro/internal/runner"
	"repro/internal/store"
)

// failEval always errors; its points claim a lease (via the tiered
// backend) and then have nothing to publish.
type failEval struct{}

func (failEval) Spec() string                           { return "faileval" }
func (failEval) Evaluate(*EvalContext) (float64, error) { return 0, errors.New("solver exploded") }

// parkEval sends its point's index on entered, then blocks until the
// evaluation is canceled and reports the cancellation. entered must have
// room for every run that can enter.
type parkEval struct {
	point   int
	entered chan int
}

func (e parkEval) Spec() string { return "parkeval:" + strconv.Itoa(e.point) }
func (e parkEval) Evaluate(ctx *EvalContext) (float64, error) {
	e.entered <- e.point
	<-ctx.Cancel
	return 0, errors.New("canceled mid-solve")
}

// infeasEval reports its point physically unrealizable.
type infeasEval struct{}

func (infeasEval) Spec() string { return "infeaseval" }
func (infeasEval) Evaluate(*EvalContext) (float64, error) {
	return 0, hetero.ErrInfeasiblePoint
}

func claimedEngine(t *testing.T) (*Engine, *store.Store, *store.Tiered) {
	t.Helper()
	disk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := store.NewTiered(disk, nil, store.TieredOptions{
		LeaseTTL: 10 * time.Second, Poll: 2 * time.Millisecond,
	})
	cache := NewCache()
	cache.SetBackend(tiered)
	return &Engine{Cache: cache, SkipInfeasible: true}, disk, tiered
}

// TestAbandonedSolveReleasesClaim pins the claim-leak fix: a solve that
// claims a lease (tiered miss) and then errors must release the lease
// immediately. Pre-fix, only Save released claims, so a failed solve
// parked every fleet peer waiting on the key for the full lease TTL.
func TestAbandonedSolveReleasesClaim(t *testing.T) {
	eng, disk, tiered := claimedEngine(t)
	topo, err := ParseTopology("rrg:n=10,deg=3,sps=1")
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{{Topo: topo, Eval: failEval{}, Seed: 1, Runs: 1}}
	if _, err := eng.MeasureRuns(pts); err == nil {
		t.Fatal("failing evaluator must surface its error")
	}
	addr := store.Addr(pts[0].Key())
	if owner, _, ok := disk.ClaimHolder(addr); ok {
		t.Fatalf("failed solve left its claim parked (held by %q) — peers wait out the full TTL", owner)
	}
	if got := tiered.Stats().Abandons; got == 0 {
		t.Fatal("abandon not counted")
	}
}

// TestCanceledSolveReleasesClaim: the same invariant under cancellation —
// a canceled eval frees its claim immediately, not at lease expiry. The
// grid is 2 points × 2 runs, so whichever points began when the context
// was canceled, each ends in exactly one Abandon.
func TestCanceledSolveReleasesClaim(t *testing.T) {
	eng, disk, _ := claimedEngine(t)
	ends := countEnds(eng)
	topo, err := ParseTopology("rrg:n=10,deg=3,sps=1")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan int, 4)
	pts := []Point{
		{Topo: topo, Eval: parkEval{point: 0, entered: entered}, Seed: 1, Runs: 2},
		{Topo: topo, Eval: parkEval{point: 1, entered: entered}, Seed: 1, Runs: 2},
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := eng.MeasureRunsProgress(ctx, pts, nil)
		errc <- err
	}()
	i := <-entered // this point holds its claim and is parked in the evaluator
	if _, _, ok := disk.ClaimHolder(store.Addr(pts[i].Key())); !ok {
		t.Fatal("test setup: the in-flight solve should hold the claim")
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v, want context.Canceled", err)
	}
	for _, p := range pts {
		if owner, _, ok := disk.ClaimHolder(store.Addr(p.Key())); ok {
			t.Fatalf("canceled solve left its claim parked (held by %q)", owner)
		}
	}
	ends.check(t)
}

// TestInfeasibleSkipReleasesClaim: an infeasible point is skipped, not
// failed — but it publishes nothing either, so its claim must be released
// all the same.
func TestInfeasibleSkipReleasesClaim(t *testing.T) {
	eng, disk, _ := claimedEngine(t)
	topo, err := ParseTopology("rrg:n=10,deg=3,sps=1")
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{{Topo: topo, Eval: infeasEval{}, Seed: 1, Runs: 1}}
	vals, err := eng.MeasureRuns(pts)
	if err != nil {
		t.Fatalf("infeasible point must skip, not fail: %v", err)
	}
	if vals[0] != nil {
		t.Fatal("infeasible point must report nil runs")
	}
	if owner, _, ok := disk.ClaimHolder(store.Addr(pts[0].Key())); ok {
		t.Fatalf("infeasible skip left its claim parked (held by %q)", owner)
	}
}

// TestMeasureRunsProgress: the per-point callback fires once up front
// (0/n) and once per completed point, with each done value of 1..n once
// (calls from different workers may arrive out of order). Each point has
// 2 runs and point 1 is a cache hit, so a tick counts points, not runs,
// and a point no run solves still ticks once.
func TestMeasureRunsProgress(t *testing.T) {
	topo, err := ParseTopology("rrg:n=10,deg=3,sps=1")
	if err != nil {
		t.Fatal(err)
	}
	eval, err := ParseEvaluator("aspl")
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, 3)
	for i := range pts {
		pts[i] = Point{Topo: topo, Eval: eval, Seed: int64(i + 1), Runs: 2}
	}
	eng := &Engine{Cache: NewCache()}
	if _, err := eng.MeasureRuns(pts[1:2]); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var ticks [][2]int
	_, err = eng.MeasureRunsProgress(context.Background(), pts, func(done, total int) {
		mu.Lock()
		ticks = append(ticks, [2]int{done, total})
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits := eng.Cache.Stats().Hits; hits != 1 {
		t.Fatalf("%d cache hits, want point 1's one", hits)
	}
	if len(ticks) != len(pts)+1 {
		t.Fatalf("ticks: %v, want %d calls", ticks, len(pts)+1)
	}
	if ticks[0] != [2]int{0, 3} {
		t.Fatalf("first tick %v, want {0 3}", ticks[0])
	}
	seen := map[int]bool{}
	for i, tk := range ticks[1:] {
		if tk[1] != 3 || tk[0] < 1 || tk[0] > 3 || seen[tk[0]] {
			t.Fatalf("tick %d is %v: ticks %v, want each of 1..3 once, total 3", i+1, tk, ticks)
		}
		seen[tk[0]] = true
	}
}

// countingBackend wraps a cache tier and counts, per key, the lookups that
// missed and the Puts and Abandons that ended them.
type countingBackend struct {
	Backend
	mu                     sync.Mutex
	misses, puts, abandons map[string]int
}

// countEnds interposes a countingBackend under eng's cache.
func countEnds(eng *Engine) *countingBackend {
	c := &countingBackend{Backend: eng.Cache.tier(),
		misses: map[string]int{}, puts: map[string]int{}, abandons: map[string]int{}}
	eng.Cache.SetBackend(c)
	return c
}

func (c *countingBackend) Load(ctx context.Context, key string) ([]float64, bool) {
	vals, ok := c.Backend.Load(ctx, key)
	if !ok {
		c.mu.Lock()
		c.misses[key]++
		c.mu.Unlock()
	}
	return vals, ok
}

func (c *countingBackend) SaveLinked(key string, vals []float64, parentKey string) error {
	c.mu.Lock()
	c.puts[key]++
	c.mu.Unlock()
	return c.Backend.SaveLinked(key, vals, parentKey)
}

func (c *countingBackend) Abandon(key string) {
	c.mu.Lock()
	c.abandons[key]++
	c.mu.Unlock()
	c.Backend.Abandon(key)
}

// check fails t unless every lookup that missed ended in exactly one Put
// or exactly one Abandon, and every key in abandoned in an Abandon.
func (c *countingBackend) check(t *testing.T, abandoned ...string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, n := range c.misses {
		if n != 1 || c.puts[key]+c.abandons[key] != 1 {
			t.Errorf("%s: %d misses ended in %d Puts and %d Abandons, want one miss and one end",
				key, n, c.puts[key], c.abandons[key])
		}
	}
	for key := range c.puts {
		if c.misses[key] == 0 {
			t.Errorf("%s: Put without a missed lookup", key)
		}
	}
	for _, key := range abandoned {
		if c.abandons[key] != 1 {
			t.Errorf("%s: %d Abandons, want 1", key, c.abandons[key])
		}
	}
}

// panicEval panics in every run.
type panicEval struct{}

func (panicEval) Spec() string                           { return "paniceval" }
func (panicEval) Evaluate(*EvalContext) (float64, error) { panic("solver panicked") }

// recovered runs f and returns what it panicked with, or nil.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestPanickedRunReleasesClaim: a run that panics ends its point like a
// failed run. The panic reaches the caller as a *runner.Panic, and the
// point's claim is released at once instead of parking peers for the
// lease TTL.
func TestPanickedRunReleasesClaim(t *testing.T) {
	eng, disk, _ := claimedEngine(t)
	ends := countEnds(eng)
	topo, err := ParseTopology("rrg:n=10,deg=3,sps=1")
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{{Topo: topo, Eval: panicEval{}, Seed: 1, Runs: 2}}
	r := recovered(func() { _, err = eng.MeasureRuns(pts) })
	p, ok := r.(*runner.Panic)
	if !ok || p.Value != "solver panicked" {
		t.Fatalf("recovered %v (error %v), want the run's *runner.Panic", r, err)
	}
	if !strings.Contains(string(p.Stack), "panicEval") {
		t.Fatalf("stack does not show the panicking run:\n%s", p.Stack)
	}
	if owner, _, ok := disk.ClaimHolder(store.Addr(pts[0].Key())); ok {
		t.Fatalf("panicked run left its point's claim parked (held by %q)", owner)
	}
	ends.check(t, pts[0].Key())
}

// stubTopo builds one fixed two-switch graph and draws nothing from its
// run's stream, so an evaluator can tell its run by runIndex.
type stubTopo struct{}

func (stubTopo) Spec() string { return "stub" }

func (stubTopo) Build(*rand.Rand) (*graph.Graph, error) {
	g := graph.New(2)
	g.AddLink(0, 1, 1)
	return g, nil
}

// stubPoint is a point on stubTopo whose run r draws from
// rand.NewSource(r): seed 0, seed factor 1.
func stubPoint(eval Evaluator, runs int) Point {
	return Point{Topo: stubTopo{}, Eval: eval, SeedFactor: 1, Runs: runs}
}

// runIndex tells which run of a stubPoint an evaluation belongs to: run
// r's stream starts with rand.NewSource(r)'s first draw.
func runIndex(ctx *EvalContext) int {
	x := ctx.Rng.Int63()
	for r := 0; r < 8; r++ {
		if rand.New(rand.NewSource(int64(r))).Int63() == x {
			return r
		}
	}
	panic("runIndex: not a run of a stubPoint")
}

// runEval hands run r to step[r] (nil: the run measures 1). name keeps
// the keys of a grid's points apart.
type runEval struct {
	name string
	step map[int]func() (float64, error)
}

func (e runEval) Spec() string { return "runeval:" + e.name }
func (e runEval) Evaluate(ctx *EvalContext) (float64, error) {
	if f := e.step[runIndex(ctx)]; f != nil {
		return f()
	}
	return 1, nil
}

// awaitClose waits up to 5 s for ch to close and reports a t.Error if it
// does not: the schedule never ran the runs the test needs at once.
func awaitClose(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Errorf("waited 5 s for %s", what)
	}
}

// TestFailedRunReleasesClaim: when the middle run of a 3-run point
// fails, the point stores nothing, releases its claim and returns that
// run's error.
func TestFailedRunReleasesClaim(t *testing.T) {
	eng, disk, _ := claimedEngine(t)
	ends := countEnds(eng)
	boom := errors.New("run 1 exploded")
	pts := []Point{stubPoint(runEval{name: "mid", step: map[int]func() (float64, error){
		1: func() (float64, error) { return 0, boom },
	}}, 3)}
	if _, err := eng.MeasureRuns(pts); !errors.Is(err, boom) {
		t.Fatalf("err %v, want run 1's %v", err, boom)
	}
	addr := store.Addr(pts[0].Key())
	if _, ok := disk.LoadAddr(addr); ok {
		t.Fatal("a point with a failed run stored a result")
	}
	if owner, _, ok := disk.ClaimHolder(addr); ok {
		t.Fatalf("failed point left its claim parked (held by %q)", owner)
	}
	ends.check(t, pts[0].Key())
}

// TestLowerPointFailureReleasesClaims: when point 0 of a grid fails while
// point 1 is under way, the grid returns point 0's error and no point
// that had begun still holds its claim, whether point 1's second run was
// skipped or ran.
func TestLowerPointFailureReleasesClaims(t *testing.T) {
	runner.SetMaxInFlight(2)
	defer runner.SetMaxInFlight(0)
	eng, disk, _ := claimedEngine(t)
	ends := countEnds(eng)
	boom := errors.New("point 0 exploded")
	started, failed := make(chan struct{}), make(chan struct{})
	pts := []Point{
		stubPoint(runEval{name: "p0", step: map[int]func() (float64, error){
			0: func() (float64, error) {
				awaitClose(t, started, "point 1 to start")
				close(failed)
				return 0, boom
			},
		}}, 1),
		stubPoint(runEval{name: "p1", step: map[int]func() (float64, error){
			0: func() (float64, error) {
				close(started)
				awaitClose(t, failed, "point 0 to fail")
				return 1, nil
			},
		}}, 2),
	}
	if _, err := eng.MeasureRuns(pts); !errors.Is(err, boom) {
		t.Fatalf("err %v, want point 0's %v", err, boom)
	}
	for i, p := range pts {
		if owner, _, ok := disk.ClaimHolder(store.Addr(p.Key())); ok {
			t.Fatalf("point %d still holds its claim (held by %q)", i, owner)
		}
	}
	ends.check(t, pts[0].Key())
}

// TestInfeasibleLowestRunSkipReleasesClaim: under SkipInfeasible, a
// point whose run 0 is infeasible and whose run 1 fails another way,
// first, is skipped and releases its claim: the lowest failing run
// decides, as in a serial loop over the runs.
func TestInfeasibleLowestRunSkipReleasesClaim(t *testing.T) {
	runner.SetMaxInFlight(2)
	defer runner.SetMaxInFlight(0)
	eng, disk, _ := claimedEngine(t)
	ends := countEnds(eng)
	failed := make(chan struct{})
	pts := []Point{stubPoint(runEval{name: "infeas", step: map[int]func() (float64, error){
		0: func() (float64, error) {
			awaitClose(t, failed, "run 1 to fail")
			return 0, rrg.ErrInfeasible
		},
		1: func() (float64, error) {
			close(failed)
			return 0, errors.New("run 1 exploded")
		},
	}}, 2)}
	vals, err := eng.MeasureRuns(pts)
	if err != nil {
		t.Fatalf("infeasible lowest failing run must skip the point, got %v", err)
	}
	if vals[0] != nil {
		t.Fatalf("skipped point reported %v, want nil runs", vals[0])
	}
	if owner, _, ok := disk.ClaimHolder(store.Addr(pts[0].Key())); ok {
		t.Fatalf("skipped point left its claim parked (held by %q)", owner)
	}
	ends.check(t, pts[0].Key())
}

// TestFailedRunBelowPanicReleasesClaim: a run's panic is its failure, so
// when run 1 panics first and run 0 then fails, run 0's error decides, as
// a serial loop over the runs would have it, and the claim is released.
func TestFailedRunBelowPanicReleasesClaim(t *testing.T) {
	runner.SetMaxInFlight(2)
	defer runner.SetMaxInFlight(0)
	eng, disk, _ := claimedEngine(t)
	ends := countEnds(eng)
	boom := errors.New("run 0 exploded")
	panicked := make(chan struct{})
	pts := []Point{stubPoint(runEval{name: "panic", step: map[int]func() (float64, error){
		0: func() (float64, error) {
			awaitClose(t, panicked, "run 1 to panic")
			return 0, boom
		},
		1: func() (float64, error) {
			close(panicked)
			panic("run 1 panicked")
		},
	}}, 2)}
	var err error
	if r := recovered(func() { _, err = eng.MeasureRuns(pts) }); r != nil {
		t.Fatalf("grid panicked with %v, want run 0's error", r)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want run 0's %v", err, boom)
	}
	if owner, _, ok := disk.ClaimHolder(store.Addr(pts[0].Key())); ok {
		t.Fatalf("failed point left its claim parked (held by %q)", owner)
	}
	ends.check(t, pts[0].Key())
}
