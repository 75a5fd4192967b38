package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameOpList(t *testing.T) {
	if a, b := sweepLines(7, sweepPass), sweepLines(7, sweepPass); !reflect.DeepEqual(a, b) {
		t.Fatal("sweep: same seed gave different op lists")
	}
	if reflect.DeepEqual(sweepLines(7, sweepPass), sweepLines(8, sweepPass)) {
		t.Fatal("sweep: different seeds gave the same op list")
	}
	p1, r1 := whatifLines(7)
	p2, r2 := whatifLines(7)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(r1, r2) {
		t.Fatal("whatif: same seed gave different op lists")
	}
	if _, r3 := whatifLines(8); reflect.DeepEqual(r1, r3) {
		t.Fatal("whatif: different seeds gave the same op list")
	}
	if !reflect.DeepEqual(warmOps(7, warmPass), warmOps(7, warmPass)) {
		t.Fatal("serve-warm: same seed gave different op lists")
	}
	if reflect.DeepEqual(warmOps(7, warmPass), warmOps(8, warmPass)) {
		t.Fatal("serve-warm: different seeds gave the same op list")
	}
}

func TestSweepLinesFreshSeeds(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range sweepLines(3, sweepPass) {
		seed := l[strings.LastIndex(l, "seed="):]
		if seen[seed] {
			t.Fatalf("seed reused: %s", seed)
		}
		seen[seed] = true
	}
}

func TestWhatifRungsUnique(t *testing.T) {
	_, rungs := whatifLines(5)
	if len(rungs) != whatifFabrics*len(whatifFracs) {
		t.Fatalf("%d rungs, want %d", len(rungs), whatifFabrics*len(whatifFracs))
	}
	seen := map[string]bool{}
	for _, r := range rungs {
		if seen[r] {
			t.Fatalf("rung asked twice in one pass: %s", r)
		}
		seen[r] = true
	}
}

func TestNearestRankPercentile(t *testing.T) {
	xs := []float64{35, 20, 50, 15, 40}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 35 {
		t.Error("percentile reordered its input")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 50}, // overlaps the first: counted once
		{Parent: 1, Start: 70, End: 80},
		{Parent: 1, Start: 95, End: 120}, // clipped to the parent's end
	}
	// Covered: [10,50) + [70,80) + [95,100) = 55.
	if got := selfTime(parent, children); got != 45 {
		t.Fatalf("self time = %d, want 45", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
	spans := append([]span{parent}, children...)
	for i := range spans[1:] {
		spans[i+1].ID = i + 2
		spans[i+1].Name = "child"
	}
	spans[0].Name = "root"
	st := selfTimes(spans)
	if len(st["root"]) != 1 || st["root"][0] != 45 {
		t.Fatalf("selfTimes root = %v, want [45]", st["root"])
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(3, 0, "op")
	tr.timed(3, root, "child", func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 3 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if d := tr.spans[1].dur(); d < time.Millisecond {
		t.Fatalf("child span lasted %v", d)
	}
	var nilTracer *tracer
	if id := nilTracer.begin(0, 0, "x"); id != 0 || nilTracer.end(id) != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
}

func TestFailedOpsCountAgainstAttempted(t *testing.T) {
	var w window
	fail := errors.New("bad answer")
	err := passLoop(&w, 0, 10, 5, nil, func(i int) error {
		if i == 4 {
			return fail
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.attempted != 10 || w.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 10 and 2", w.attempted, w.failed)
	}
	if want := 8 / w.wall.Seconds(); math.Abs(w.opsPerSec()-want) > 1e-9*want {
		t.Fatalf("ops/s = %g, want completed ops over wall time %g", w.opsPerSec(), want)
	}
	// Two failures in ten: the 90th percentile is a miss.
	if p := percentile(w.latMs, 90); !math.IsInf(p, 1) {
		t.Fatalf("p90 = %g, want +Inf with 20%% failed", p)
	}
	if p := percentile(w.latMs, 50); math.IsInf(p, 0) {
		t.Fatalf("p50 = %g, want a measured latency", p)
	}
}

func TestPassLoopRunsWholePasses(t *testing.T) {
	var w window
	resets := 0
	err := passLoop(&w, 0, 7, 3, func() error { resets++; return nil }, func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if w.attempted != 9 || resets != 3 {
		t.Fatalf("attempted %d with %d resets, want 9 ops in 3 passes", w.attempted, resets)
	}
}

func TestCompareRefusesDifferentNproc(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nproc int) string {
		path := filepath.Join(dir, name)
		r := record{Env: env{NProc: nproc}, Workload: "sweep",
			Result: result{Metrics: map[string]metric{"p50_ms": {1, "ms"}}}}
		data := mustJSON(t, r)
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.jsonl", 2), write("b.jsonl", 4), write("c.jsonl", 2)
	if err := compare(io.Discard, a, b); err == nil || !strings.Contains(err.Error(), "nproc") {
		t.Fatalf("compare across nproc: err = %v, want a refusal", err)
	}
	if err := compare(io.Discard, a, c); err != nil {
		t.Fatalf("compare on equal nproc: %v", err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
