package scenario

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/store"
)

// warmTestPoints is a small delta-shaped grid: two failure-ladder rungs
// sharing one frac=0 parent, plus one expansion step whose parent is the
// unexpanded topology.
func warmTestPoints(t *testing.T) []Point {
	t.Helper()
	topo, err := ParseTopology("rrg:n=20,deg=6,sps=2")
	if err != nil {
		t.Fatal(err)
	}
	return []Point{
		{Topo: topo, Traffic: Permutation{}, Eval: Failures{Frac: 0.1, Inner: MCF{}},
			Seed: 1, Runs: 2, Epsilon: 0.12},
		{Topo: topo, Traffic: Permutation{}, Eval: Failures{Frac: 0.2, Inner: MCF{}},
			Seed: 1, Runs: 2, Epsilon: 0.12},
		{Topo: &Expand{N: 20, Deg: 6, SPS: 2, Steps: 1, Cap: 1}, Traffic: Permutation{}, Eval: MCF{},
			Seed: 1, Runs: 2, Epsilon: 0.12},
	}
}

// warmBand checks a warm value against its cold counterpart: a warm start
// may move a value only within the certified class. The solver stops a
// warm-seeded solve at optimality gap 3ε against a valid dual bound (the
// class flowcheck certifies), and a cold solve is itself only (1−1.5ε)-
// tight, so the ratio is bounded by (1−3.1ε) on either side (the extra
// 0.1ε absorbs the bounds' own slack).
func warmBand(t *testing.T, what string, warm, cold, eps float64) {
	t.Helper()
	lo := 1 - 3.1*eps
	if warm < lo*cold || cold < lo*warm {
		t.Fatalf("%s: warm value %v outside the certified class of cold value %v (eps=%v)",
			what, warm, cold, eps)
	}
}

// TestWarmStartCertifiedWithinClass is the headline warm-start property:
// every warm-started solve passes flowcheck certification (Starts counts
// only certified solves), and its value stays within the certified ε
// class of the cold solve of the same point.
func TestWarmStartCertifiedWithinClass(t *testing.T) {
	pts := warmTestPoints(t)
	coldVals, err := (&Engine{Parallel: 1}).MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Parallel: 1, Cache: NewCache(), WarmStart: true}
	warmVals, err := e.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	ws := e.WarmStats()
	if ws.Starts == 0 {
		t.Fatalf("no solve warm-started: %+v", ws)
	}
	if ws.Starts+ws.Fallbacks > ws.Attempts {
		t.Fatalf("inconsistent warm counters: %+v", ws)
	}
	if ws.ParentMisses == 0 {
		t.Fatalf("parents were never materialized: %+v", ws)
	}
	for i := range pts {
		for run := range warmVals[i] {
			warmBand(t, pts[i].Key(), warmVals[i][run], coldVals[i][run], pts[i].Epsilon)
		}
	}
}

// TestWarmStartDeterministicAcrossWorkers extends the engine determinism
// contract to warm starts: the same delta-shaped grid, warm-started at 1,
// 2, GOMAXPROCS, and 5 workers, produces reflect.DeepEqual values. The
// witness is a pure function of the parent point, the mapping is a pure
// function of witness and graphs, and the warm solve is deterministic in
// its seed — so scheduling cannot leak in.
func TestWarmStartDeterministicAcrossWorkers(t *testing.T) {
	pts := warmTestPoints(t)
	var ref [][]float64
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 5} {
		e := &Engine{Parallel: workers, Cache: NewCache(), WarmStart: true}
		vals, err := e.MeasureRuns(pts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ws := e.WarmStats(); ws.Starts == 0 {
			t.Fatalf("workers=%d: no solve warm-started: %+v", workers, ws)
		}
		if ref == nil {
			ref = vals
			continue
		}
		if !reflect.DeepEqual(vals, ref) {
			t.Fatalf("workers=%d: warm-started results differ from serial reference\n got %v\nwant %v",
				workers, vals, ref)
		}
	}
}

// memBackend is a map-backed cache Backend standing in for a peer
// replica's result store: entries arrive via SaveLinked from "another
// process" and are served to this one via Load, the same path a
// remotestore client takes.
type memBackend struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newMemBackend() *memBackend { return &memBackend{m: map[string][]float64{}} }

func (b *memBackend) Load(_ context.Context, key string) ([]float64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.m[key]
	return append([]float64(nil), v...), ok
}

func (b *memBackend) SaveLinked(key string, vals []float64, _ string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = append([]float64(nil), vals...)
	return nil
}

func (b *memBackend) PinKey(string) func() { return func() {} }

func (b *memBackend) Abandon(string) {}

// TestWarmStartParentSourceIrrelevant pins byte-determinism across the
// witness transport ladder: a child warm-started from a parent witness it
// materialized in memory, one loaded from a disk store written by an
// earlier "process", and one served by a peer-replica-style backend all
// produce reflect.DeepEqual values. Witnesses are ordinary TBRS entries
// (bit-exact float64), so where the parent came from cannot matter.
func TestWarmStartParentSourceIrrelevant(t *testing.T) {
	pts := warmTestPoints(t)
	parents := make([]Point, 0, len(pts))
	for _, p := range pts {
		pp, ok := ParentPoint(p)
		if !ok {
			t.Fatalf("point %s has no parent", p.Key())
		}
		parents = append(parents, pp)
	}

	// Memory: a fresh warm engine materializes the parents itself.
	mem := &Engine{Parallel: 1, Cache: NewCache(), WarmStart: true}
	memVals, err := mem.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if ws := mem.WarmStats(); ws.ParentMisses == 0 || ws.Starts == 0 {
		t.Fatalf("memory run did not materialize parents: %+v", ws)
	}

	// Disk: process A (warm, so it publishes witnesses) solves only the
	// parents; process B, a fresh handle on the same dir, solves the
	// children from the stored witnesses.
	dir := t.TempDir()
	a := &Engine{Parallel: 1, Cache: storeBacked(t, dir), WarmStart: true}
	if _, err := a.MeasureRuns(parents); err != nil {
		t.Fatal(err)
	}
	b := &Engine{Parallel: 1, Cache: storeBacked(t, dir), WarmStart: true}
	diskVals, err := b.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if ws := b.WarmStats(); ws.ParentHits != int64(len(pts)) {
		t.Fatalf("disk run did not load every parent witness set from the store: %+v", ws)
	}

	// Peer: the same replay with the witnesses held by a peer-style
	// backend instead of a disk store.
	peer := newMemBackend()
	ca := NewCache()
	ca.SetBackend(peer)
	if _, err := (&Engine{Parallel: 1, Cache: ca, WarmStart: true}).MeasureRuns(parents); err != nil {
		t.Fatal(err)
	}
	cb := NewCache()
	cb.SetBackend(peer)
	peerEng := &Engine{Parallel: 1, Cache: cb, WarmStart: true}
	peerVals, err := peerEng.MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	if ws := peerEng.WarmStats(); ws.ParentHits != int64(len(pts)) {
		t.Fatalf("peer run did not load every parent witness set from the backend: %+v", ws)
	}

	if !reflect.DeepEqual(diskVals, memVals) || !reflect.DeepEqual(peerVals, memVals) {
		t.Fatalf("warm values depend on the parent's source:\n mem  %v\n disk %v\n peer %v",
			memVals, diskVals, peerVals)
	}
}

// TestWarmStartParentLinkDurable: a warm-started point's store entry
// records its parent's content address (codec v2 link), readable by any
// process, and the store counts the linked write.
func TestWarmStartParentLinkDurable(t *testing.T) {
	pts := warmTestPoints(t)[:1]
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.SetBackend(st)
	e := &Engine{Parallel: 1, Cache: c, WarmStart: true}
	if _, err := e.MeasureRuns(pts); err != nil {
		t.Fatal(err)
	}
	if ws := e.WarmStats(); ws.Starts == 0 {
		t.Fatalf("no solve warm-started: %+v", ws)
	}
	if ss := st.Stats(); ss.ParentLinks == 0 {
		t.Fatalf("no parent-linked entry written: %+v", ss)
	}
	raw, _, ok := st.LoadAddrBuf(store.Addr(pts[0].Key()), nil, nil)
	if !ok {
		t.Fatal("child entry missing from the store")
	}
	_, parent, ok := store.DecodeEntry(raw)
	if !ok {
		t.Fatal("child entry does not decode")
	}
	pp, _ := ParentPoint(pts[0])
	if want := store.Addr(pp.Key()); parent != want {
		t.Fatalf("child entry parent link = %q, want %q", parent, want)
	}
}

// TestParentPoint pins the parent derivation rules: a failure rung's
// parent is the same point at frac=0, an expansion step's parent is
// steps−1, base cases and plain points have none.
func TestParentPoint(t *testing.T) {
	topo, err := ParseTopology("rrg:n=20,deg=6,sps=2")
	if err != nil {
		t.Fatal(err)
	}
	rung := Point{Topo: topo, Traffic: Permutation{}, Eval: Failures{Frac: 0.1, Inner: MCF{}},
		Seed: 1, Runs: 2, Epsilon: 0.12}
	pp, ok := ParentPoint(rung)
	if !ok || pp.Eval.Spec() != (Failures{Frac: 0, Inner: MCF{}}).Spec() {
		t.Fatalf("failure rung parent = %+v, ok=%v", pp, ok)
	}
	if pp.Seed != rung.Seed || pp.Runs != rung.Runs || pp.Epsilon != rung.Epsilon {
		t.Fatalf("parent does not inherit run controls: %+v", pp)
	}

	exp := Point{Topo: &Expand{N: 20, Deg: 6, SPS: 2, Steps: 2, Cap: 1}, Traffic: Permutation{}, Eval: MCF{},
		Seed: 1, Runs: 2, Epsilon: 0.12}
	pp, ok = ParentPoint(exp)
	if !ok || pp.Topo.Spec() != (&Expand{N: 20, Deg: 6, SPS: 2, Steps: 1, Cap: 1}).Spec() {
		t.Fatalf("expansion parent = %+v, ok=%v", pp, ok)
	}

	base := Point{Topo: topo, Traffic: Permutation{}, Eval: Failures{Frac: 0, Inner: MCF{}}}
	if _, ok := ParentPoint(base); ok {
		t.Fatal("frac=0 base case must have no parent")
	}
	plain := Point{Topo: topo, Traffic: Permutation{}, Eval: MCF{}}
	if _, ok := ParentPoint(plain); ok {
		t.Fatal("plain point must have no parent")
	}
}

// TestCanParent crosses both delta kinds: over plain, expansion-base and
// expansion-step topologies and plain, failures-base and failures-rung
// evaluators, every point parentPoint derives must satisfy canParent, and
// a failures rung with frac > 0 or a plain point must not.
func TestCanParent(t *testing.T) {
	rrg, err := ParseTopology("rrg:n=20,deg=6,sps=2")
	if err != nil {
		t.Fatal(err)
	}
	topos := []Topology{rrg,
		&Expand{N: 20, Deg: 6, SPS: 2, Steps: 0, Cap: 1},
		&Expand{N: 20, Deg: 6, SPS: 2, Steps: 2, Cap: 1}}
	evals := []Evaluator{MCF{}, Failures{Frac: 0, Inner: MCF{}}, Failures{Frac: 0.1, Inner: MCF{}}}
	parents := 0
	for _, topo := range topos {
		for _, ev := range evals {
			p := Point{Topo: topo, Traffic: Permutation{}, Eval: ev, Seed: 1, Runs: 2, Epsilon: 0.12}
			if pp, _, ok := parentPoint(p); ok {
				parents++
				if !canParent(pp) {
					t.Errorf("parent %s of %s fails canParent", pp.Key(), p.Key())
				}
			}
			if f, ok := ev.(Failures); ok && f.Frac > 0 && canParent(p) {
				t.Errorf("failure rung %s passes canParent", p.Key())
			}
		}
	}
	if parents != 5 {
		t.Fatalf("%d of the 9 crossed points have a parent, want 5", parents)
	}
	if canParent(Point{Topo: rrg, Traffic: Permutation{}, Eval: MCF{}}) {
		t.Fatal("a plain point passes canParent")
	}
}

// TestWarmEnginePublishesParentWitnessesOnly: a warm engine solving a
// failure rung publishes the witnesses of the frac=0 parent it
// materializes, which the rung reads, and none for the rung itself, which
// no point would ever read.
func TestWarmEnginePublishesParentWitnessesOnly(t *testing.T) {
	rung := warmTestPoints(t)[0]
	pp, _ := ParentPoint(rung)
	e := &Engine{Parallel: 1, Cache: NewCache(), WarmStart: true}
	if _, err := e.MeasureRuns([]Point{rung}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < rung.Runs; i++ {
		if _, ok := e.Cache.Get(ctx, WitnessKey(pp.Key(), i)); !ok {
			t.Errorf("run %d: parent witness not published", i)
		}
		if _, ok := e.Cache.Get(ctx, WitnessKey(rung.Key(), i)); ok {
			t.Errorf("run %d: the rung published a witness no child can read", i)
		}
	}
}
