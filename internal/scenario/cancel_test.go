package scenario

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestMeasureRunsProgressCanceled: a canceled context surfaces as the
// context's own error (errors.Is-able), and no partial values leak into
// the cache — re-evaluating after cancellation yields the full result.
func TestMeasureRunsProgressCanceled(t *testing.T) {
	topo, err := ParseTopology("rrg:n=10,deg=3,sps=1")
	if err != nil {
		t.Fatal(err)
	}
	eval, err := ParseEvaluator("aspl")
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{{Topo: topo, Eval: eval, Seed: 1, Runs: 2}}

	cache := NewCache()
	eng := &Engine{Cache: cache}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.MeasureRunsProgress(ctx, pts, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v, want context.Canceled", err)
	}
	if cache.Stats().Entries != 0 {
		t.Fatal("a canceled evaluation left cache entries behind")
	}

	// The same engine recovers fully once the pressure is off.
	vals, err := eng.MeasureRunsProgress(context.Background(), pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := (&Engine{}).MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, clean) {
		t.Fatal("post-cancellation evaluation differs from a clean one")
	}
}
