package scenario

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/hetero"
	"repro/internal/store"
)

// failEval always errors; its points claim a lease (via the tiered
// backend) and then have nothing to publish.
type failEval struct{}

func (failEval) Spec() string                           { return "faileval" }
func (failEval) Evaluate(*EvalContext) (float64, error) { return 0, errors.New("solver exploded") }

// parkEval blocks until the evaluation is canceled, then reports the
// cancellation.
type parkEval struct{ entered chan struct{} }

func (e parkEval) Spec() string { return "parkeval" }
func (e parkEval) Evaluate(ctx *EvalContext) (float64, error) {
	close(e.entered)
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
// a canceled eval frees its claim immediately, not at lease expiry.
func TestCanceledSolveReleasesClaim(t *testing.T) {
	eng, disk, _ := claimedEngine(t)
	topo, err := ParseTopology("rrg:n=10,deg=3,sps=1")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	pts := []Point{{Topo: topo, Eval: parkEval{entered: entered}, Seed: 1, Runs: 1}}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := eng.MeasureRunsProgress(ctx, pts, nil)
		errc <- err
	}()
	<-entered // the solve holds the claim and is parked in the evaluator
	addr := store.Addr(pts[0].Key())
	if _, _, ok := disk.ClaimHolder(addr); !ok {
		t.Fatal("test setup: the in-flight solve should hold the claim")
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v, want context.Canceled", err)
	}
	if owner, _, ok := disk.ClaimHolder(addr); ok {
		t.Fatalf("canceled solve left its claim parked (held by %q)", owner)
	}
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
// (0/n) and once per completed point, monotonically, ending at n/n.
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
		pts[i] = Point{Topo: topo, Eval: eval, Seed: int64(i + 1), Runs: 1}
	}
	var mu sync.Mutex
	var ticks [][2]int
	eng := &Engine{}
	_, err = eng.MeasureRunsProgress(context.Background(), pts, func(done, total int) {
		mu.Lock()
		ticks = append(ticks, [2]int{done, total})
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ticks) != len(pts)+1 {
		t.Fatalf("ticks: %v, want %d calls", ticks, len(pts)+1)
	}
	if ticks[0] != [2]int{0, 3} {
		t.Fatalf("first tick %v, want {0 3}", ticks[0])
	}
	for i, tk := range ticks {
		if tk[1] != 3 {
			t.Fatalf("tick %d total %d, want 3", i, tk[1])
		}
		if i > 0 && tk[0] != ticks[i-1][0]+1 {
			t.Fatalf("ticks not monotone: %v", ticks)
		}
	}
	if last := ticks[len(ticks)-1]; last != [2]int{3, 3} {
		t.Fatalf("final tick %v, want {3 3}", last)
	}
}
