// Package benchsuite holds the one copy of every benchmark body that both
// `go test -bench` and cmd/benchjson run. Each body is a leaf
// func(*testing.B) in Suite, named as `go test -bench` prints it minus the
// "Benchmark" prefix (SolverScale/n=80). The root bench_test.go runs the
// entries under each prefix through Run; cmd/benchjson runs the entries
// its snapshot lists through testing.Benchmark.
package benchsuite

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/mcf"
	"repro/internal/remotestore"
	"repro/internal/rrg"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/traffic"
)

// Bench is one leaf benchmark.
type Bench struct {
	Name string
	F    func(*testing.B)
}

// Suite lists the shared benchmark bodies, in the order `go test -bench`
// runs the entries under one prefix. Names are unique.
var Suite = []Bench{
	{"SolverScale/n=20", solve(20, 0.1)},
	{"SolverScale/n=40", solve(40, 0.1)},
	{"SolverScale/n=80", solve(80, 0.1)},
	{"SolverEpsilon/eps=0.2", solve(40, 0.2)},
	{"SolverEpsilon/eps=0.1", solve(40, 0.1)},
	{"SolverEpsilon/eps=0.05", solve(40, 0.05)},
	{"SolverRepair/n=80/repair", repair(80, 10, true)},
	{"SolverRepair/n=80/rebuild", repair(80, 10, false)},
	{"SolverRepair/n=400/repair", repair(400, 6, true)},
	{"SolverRepair/n=400/rebuild", repair(400, 6, false)},
	{"ScenarioCache/cold", scenarioCache(false)},
	{"ScenarioCache/warm", scenarioCache(true)},
	{"StoreColdWarm/cold", storeColdWarm(false)},
	{"StoreColdWarm/warm", storeColdWarm(true)},
	{"RemoteStore/clean", remoteStore(false)},
	{"RemoteStore/faulty", remoteStore(true)},
	{"SolverWarmStart/ladder/cold", warmStart(ladderPoints, false)},
	{"SolverWarmStart/ladder/warm", warmStart(ladderPoints, true)},
	{"SolverWarmStart/expand/cold", warmStart(expandPoints, false)},
	{"SolverWarmStart/expand/warm", warmStart(expandPoints, true)},
	{"GraphTree/uniform/heap", uniformTree(false)},
	{"GraphTree/uniform/bucket", uniformTree(true)},
	{"GraphTree/dual/rrg/heap", dualTrees("rrg:n=20,deg=6,sps=3", false)},
	{"GraphTree/dual/rrg/bucket", dualTrees("rrg:n=20,deg=6,sps=3", true)},
	{"GraphTree/dual/plrrg/heap", dualTrees("plrrg:n=20,avg=6,kmax=12,sfrac=0.4", false)},
	{"GraphTree/dual/plrrg/bucket", dualTrees("plrrg:n=20,avg=6,kmax=12,sfrac=0.4", true)},
	{"GraphTree/dual/vl2/heap", dualTrees("vl2:da=12,di=8", false)},
	{"GraphTree/dual/vl2/bucket", dualTrees("vl2:da=12,di=8", true)},
	{"BisectionBandwidth", bisection},
	{"Fig2a", Figure("2a")},
	{"Fig9a", Figure("9a")},
	{"ServeEvalWarm", serveEvalWarm},
}

// Run runs the entry named prefix as b itself, or every entry under
// prefix/ as a sub-benchmark named by the rest of its name, so `go test
// -bench` prints each entry under its suite name. A prefix that matches
// nothing fails b: a renamed entry cannot silently drop out.
func Run(b *testing.B, prefix string) {
	found := false
	for _, e := range Suite {
		if e.Name == prefix {
			e.F(b)
			return
		}
		if rest, ok := strings.CutPrefix(e.Name, prefix+"/"); ok {
			found = true
			b.Run(rest, e.F)
		}
	}
	if !found {
		b.Fatalf("benchsuite: no entry named %s", prefix)
	}
}

// Figure regenerates one paper figure in quick mode. The reduced settings
// keep every figure within benchmark time; the series shapes are
// preserved, only grids and run counts shrink.
func Figure(id string) func(*testing.B) {
	return func(b *testing.B) {
		run := experiments.Registry[id]
		if run == nil {
			b.Fatalf("unknown figure %s", id)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fig, err := run(experiments.Options{Quick: true, Runs: 2, Seed: 1})
			if err != nil {
				b.Fatalf("figure %s: %v", id, err)
			}
			if len(fig.Series) == 0 {
				b.Fatalf("figure %s produced no series", id)
			}
		}
	}
}

// SolverInstance is the solver benchmarks' instance: an rrg(n, r) with sps
// servers per switch under a random permutation, all from seed 1.
func SolverInstance(tb testing.TB, n, r, sps int) (*graph.Graph, []traffic.Flow) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	g, err := rrg.Regular(rng, n, r)
	if err != nil {
		tb.Fatal(err)
	}
	for u := 0; u < n; u++ {
		g.SetServers(u, sps)
	}
	tm := traffic.Permutation(rng, traffic.HostsOf(g))
	return g, tm.Flows
}

// solve times mcf.Solve on SolverInstance(n, 10, 5). SolverScale is the
// Fig. 2 regime (size at fixed degree); SolverEpsilon prices tighter ε
// (the paper's results are ratios, so ε ≈ 0.1 suffices).
func solve(n int, eps float64) func(*testing.B) {
	return func(b *testing.B) {
		g, flows := SolverInstance(b, n, 10, 5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mcf.Solve(g, flows, mcf.Options{Epsilon: eps}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// repair times dynamic shortest-path-tree repair (incremental) against a
// full rebuild on phase-to-phase length updates. Between two refreshes of
// one source's tree, the Garg–Könemann solver grows the arcs other sources
// routed on — from this tree's perspective a scattering of mostly non-tree
// and deep tree arcs. Each iteration applies one such cross-traffic batch
// and then brings the tree current, either incrementally (Repair) or from
// scratch (Run). The growth factor is kept infinitesimal so lengths stay
// finite over any b.N while leaving the repair work (which depends only on
// which arcs grew) unchanged. Growth concentrated on the tree's own root
// paths is the opposite regime — stale subtrees hang off the root and
// repair degenerates to a rebuild — which is why the solver budgets
// repairs and falls back adaptively (see internal/mcf).
func repair(n, r int, incremental bool) func(*testing.B) {
	return func(b *testing.B) {
		g, err := rrg.Regular(rand.New(rand.NewSource(1)), n, r)
		if err != nil {
			b.Fatal(err)
		}
		m := g.NumArcs()
		lens := make([]float64, m)
		rng := rand.New(rand.NewSource(2))
		for a := range lens {
			lens[a] = 1 + 1e-3*rng.Float64()
		}
		d := g.NewDijkstraScratch()
		d.Run(0, lens, nil)
		changed := make([]int32, 0, 12)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			changed = changed[:0]
			for k := 0; k < 12; k++ {
				a := int32(rng.Intn(m))
				lens[a] *= 1 + 1e-9
				changed = append(changed, a)
			}
			if !incremental {
				d.Run(0, lens, nil)
			} else if !d.Repair(lens, changed) {
				b.Fatal("repair refused")
			}
		}
	}
}

// uniformTree times one full shortest-path tree from node 0 of a random
// 400-node graph (a random spanning tree plus 1,000 random links) under
// near-uniform lengths in [1, 1.01): the early-phase regime where the
// bucket queue replaces every heap sift with an O(1) slice op.
func uniformTree(bucket bool) func(*testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		const n = 400
		g := graph.New(n)
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
		delta, _ := graph.LengthRange(lens)
		d := g.NewDijkstraScratch()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if bucket {
				d.RunBucketed(0, lens, nil, delta)
			} else {
				d.Run(0, lens, nil)
			}
		}
	}
}

// dualTrees times the solver's early-exit tree rebuilds: one op is one
// tree per source of a seed-1 permutation on topoSpec, each stopping once
// that source's destinations settle, under the length function of the
// best-bound phase of a cold mcf.Solve of that instance (Result.DualLens;
// bucket width from graph.LengthRange). The specs are perfbench sweep's
// families.
func dualTrees(topoSpec string, bucket bool) func(*testing.B) {
	return func(b *testing.B) {
		tp, err := scenario.ParseTopology(topoSpec)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := scenario.ParseTraffic("permutation")
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		g, err := tp.Build(rng)
		if err != nil {
			b.Fatal(err)
		}
		tm, err := tr.Matrix(rng, g)
		if err != nil {
			b.Fatal(err)
		}
		res, err := mcf.Solve(g, tm.Flows, mcf.Options{})
		if err != nil {
			b.Fatal(err)
		}
		lens := res.DualLens
		targets := make([][]int32, g.N())
		for _, f := range tm.Flows {
			targets[f.Src] = append(targets[f.Src], int32(f.Dst))
		}
		delta, _ := graph.LengthRange(lens)
		d := g.NewDijkstraScratch()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for src, ts := range targets {
				switch {
				case ts == nil:
				case bucket:
					d.RunBucketed(src, lens, ts, delta)
				default:
					d.Run(src, lens, ts)
				}
			}
		}
	}
}

// bisection times bisection bandwidth estimation, dominated by the
// Kernighan–Lin refinement and its incremental swap gains.
func bisection(b *testing.B) {
	g, err := rrg.Regular(rand.New(rand.NewSource(1)), 200, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := maxflow.BisectionBandwidth(g, 4); v <= 0 {
			b.Fatal("non-positive bisection estimate")
		}
	}
}

// sweepGrid is the repeated-instance degree sweep of ScenarioCache and
// StoreColdWarm.
func sweepGrid(b *testing.B) scenario.Grid {
	grid, err := scenario.ParseGrid("topo=rrg:n=40,sps=5 traffic=permutation eval=mcf sweep=deg:6..14:4 runs=2 eps=0.12 seed=1")
	if err != nil {
		b.Fatal(err)
	}
	return grid
}

// scenarioCache times the scenario engine's content-addressed solve cache
// on the sweep. "cold" solves the whole grid; "warm" re-runs the identical
// grid against a primed cache, so every point is a content hash lookup —
// the figures-sharing-instances case.
func scenarioCache(warm bool) func(*testing.B) {
	return func(b *testing.B) {
		grid := sweepGrid(b)
		run := func(e *scenario.Engine) {
			if _, _, err := grid.Run(e); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		if !warm {
			for i := 0; i < b.N; i++ {
				run(&scenario.Engine{})
			}
			return
		}
		e := &scenario.Engine{Cache: scenario.NewCache()}
		run(e)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(e)
		}
	}
}

// storeColdWarm times the persistent result store's cross-process restart
// win on the sweep. "cold" is a fresh process over an empty store dir
// (solve + persist), "warm" is a restarted process — fresh cache, fresh
// store handle — over a primed dir, answering every point from disk.
func storeColdWarm(warm bool) func(*testing.B) {
	return func(b *testing.B) {
		grid := sweepGrid(b)
		run := func(dir string) {
			st, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			cache := scenario.NewCache()
			cache.SetBackend(st)
			if _, _, err := grid.Run(&scenario.Engine{Cache: cache}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		if !warm {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				b.StartTimer()
				run(dir)
			}
			return
		}
		dir := b.TempDir()
		run(dir)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(dir)
		}
	}
}

// ladderPoints is the failure ladder of the incremental-evaluation
// benchmarks: the sweep's instance (rrg n=40 deg=10 sps=5, permutation,
// mcf, eps=0.12, seed=1) degraded at frac=0.05..0.2. All rungs share one
// seed, so they share one frac=0 parent — the "what changed" ladder a
// warm-started engine answers from that parent's witness.
func ladderPoints(tb testing.TB) []scenario.Point {
	tb.Helper()
	topoSpec, err := scenario.ParseTopology("rrg:n=40,sps=5")
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := scenario.ParseTraffic("permutation")
	if err != nil {
		tb.Fatal(err)
	}
	var pts []scenario.Point
	for _, frac := range []float64{0.05, 0.1, 0.15, 0.2} {
		inner, err := scenario.ParseEvaluator("mcf")
		if err != nil {
			tb.Fatal(err)
		}
		pts = append(pts, scenario.Point{
			Topo: topoSpec, Traffic: tr,
			Eval: scenario.Failures{Frac: frac, Inner: inner},
			Seed: 1, Runs: 2, Epsilon: 0.12,
		})
	}
	return pts
}

// expandPoints is the expansion-step variant: one growth step on the
// same instance, whose parent is the unexpanded base fabric.
func expandPoints(tb testing.TB) []scenario.Point {
	tb.Helper()
	topoSpec, err := scenario.ParseTopology("expand:n=40,deg=10,sps=5,steps=1")
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := scenario.ParseTraffic("permutation")
	if err != nil {
		tb.Fatal(err)
	}
	ev, err := scenario.ParseEvaluator("mcf")
	if err != nil {
		tb.Fatal(err)
	}
	return []scenario.Point{{
		Topo: topoSpec, Traffic: tr, Eval: ev,
		Seed: 1, Runs: 2, Epsilon: 0.12,
	}}
}

// primeWitnesses solves every point's parent once (warm-start engine, so
// witnesses are exported) and returns the witness entries, keyed ready
// for injection into a fresh cache. The benchmark loop injects ONLY these
// — no parent results, no child results — so each iteration measures the
// delta solves themselves with the parent witness resident, never a
// result-cache hit.
func primeWitnesses(tb testing.TB, pts []scenario.Point) map[string][]float64 {
	tb.Helper()
	prime := scenario.NewCache()
	eng := &scenario.Engine{Cache: prime, WarmStart: true}
	wit := map[string][]float64{}
	for _, p := range pts {
		pp, ok := scenario.ParentPoint(p)
		if !ok {
			tb.Fatalf("point %s has no parent", p.Key())
		}
		if _, err := eng.MeasureRuns([]scenario.Point{pp}); err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < p.Runs; i++ {
			k := scenario.WitnessKey(pp.Key(), i)
			w, ok := prime.Get(context.Background(), k)
			if !ok {
				tb.Fatalf("parent solve exported no witness under %s", k)
			}
			wit[k] = w
		}
	}
	return wit
}

// warmStart times incremental what-if evaluation: the same delta-shaped
// points solved cold (from-scratch Fleischer solves) and warm (seeded from
// the parent's witness, flowcheck-recertified); the ladder's cold/warm
// ns/op ratio must stay ≥3×, which cmd/benchjson enforces on every run.
// Priming happens outside the timer, and the warm
// iterations carry witnesses only, so a warm op is parent-witness mapping
// + seeded solve + certification — the real marginal cost of answering
// "what if" against an already-evaluated fabric.
func warmStart(points func(testing.TB) []scenario.Point, warm bool) func(*testing.B) {
	return func(b *testing.B) {
		pts := points(b)
		b.ReportAllocs()
		if !warm {
			for i := 0; i < b.N; i++ {
				eng := &scenario.Engine{}
				if _, err := eng.MeasureRuns(pts); err != nil {
					b.Fatal(err)
				}
			}
			return
		}
		wit := primeWitnesses(b, pts)
		runsTotal := 0
		for _, p := range pts {
			runsTotal += p.Runs
		}
		b.ResetTimer()
		var last *scenario.Engine
		for i := 0; i < b.N; i++ {
			cache := scenario.NewCache()
			for k, v := range wit {
				cache.Put(k, v, "")
			}
			eng := &scenario.Engine{Cache: cache, WarmStart: true}
			if _, err := eng.MeasureRuns(pts); err != nil {
				b.Fatal(err)
			}
			last = eng
		}
		b.StopTimer()
		if ws := last.WarmStats(); ws.Starts != int64(runsTotal) {
			b.Fatalf("warm iteration did not warm-start every run: %+v (want %d starts)", ws, runsTotal)
		}
	}
}

// remoteStore times one remote Load round trip against a warm in-memory
// peer: "clean" over a healthy transport, "faulty" through the chaos
// injector at the CI smoke's rates (20% errors, 5% corruption) — the
// faulty/clean ratio is what fault tolerance costs on the hit path
// (retries, backoff bookkeeping, breaker trips) while every call still
// terminates with an answer. The peer speaks only the result routes, so
// the client's own cost (codec, CRC re-verify, retry machinery) is all
// that is measured: no engine, no disk.
func remoteStore(faulty bool) func(*testing.B) {
	return func(b *testing.B) {
		var mu sync.Mutex
		data := map[string][]byte{}
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			addr := strings.TrimPrefix(r.URL.Path, "/v1/result/")
			switch r.Method {
			case http.MethodGet:
				mu.Lock()
				body, ok := data[addr]
				mu.Unlock()
				if !ok {
					http.Error(w, "not found", http.StatusNotFound)
					return
				}
				w.Header().Set("Content-Type", remotestore.ContentType)
				w.Write(body)
			case http.MethodPut:
				body, err := io.ReadAll(r.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				mu.Lock()
				data[addr] = body
				mu.Unlock()
				w.WriteHeader(http.StatusNoContent)
			default:
				http.Error(w, "method", http.StatusMethodNotAllowed)
			}
		}))
		defer hs.Close()
		opt := remotestore.Options{
			BaseURL: hs.URL,
			// Microsecond backoff: the benchmark measures machinery, not
			// the (configurable) waits themselves.
			BackoffBase:     time.Microsecond,
			BackoffMax:      10 * time.Microsecond,
			BreakerCooldown: time.Millisecond,
		}
		if faulty {
			fcfg, err := faultinject.ParseSpec("seed=11,error=0.2,corrupt=0.05")
			if err != nil {
				b.Fatal(err)
			}
			opt.Transport = faultinject.NewTransport(nil, fcfg)
		}
		c := remotestore.New(opt)
		ctx := context.Background()
		key := "bench-point"
		vals := make([]float64, 16)
		for i := range vals {
			vals[i] = float64(i) * 0.5
		}
		if err := c.SaveLinked(key, vals, ""); err != nil {
			b.Fatal(err)
		}
		if got, ok := c.Load(ctx, key); !ok || len(got) != len(vals) {
			b.Fatal("peer did not serve the primed entry")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Under faults a call may degrade to a miss (breaker open,
			// retries exhausted) — that IS the measured behavior; what it
			// must never do is error or stall.
			c.Load(ctx, key)
		}
		b.StopTimer()
		if st := c.Stats(); st.Loads < int64(b.N) {
			b.Fatalf("stats undercount: %+v", st)
		}
	}
}

// ServeGrid is the serve benchmarks' unit of work: a single-point aspl
// grid whose cost, once warm, is all serve path. Each seed is a distinct
// grid.
func ServeGrid(seed int) string {
	return fmt.Sprintf("topo=rrg:n=8,deg=3,sps=1 traffic=permutation eval=aspl runs=1 seed=%d", seed)
}

// replayBody is a rearm-able request body: Seek(0) readies it for the
// next iteration without allocating a reader.
type replayBody struct{ *bytes.Reader }

func (replayBody) Close() error { return nil }

// nullRW discards the response body and reuses its header map, so the
// benchmark charges the handler's writes and nothing else.
type nullRW struct {
	h      http.Header
	status int
}

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullRW) WriteHeader(s int)           { w.status = s }
func (w *nullRW) reset() {
	w.status = 0
	for k := range w.h {
		delete(w.h, k)
	}
}

// serveEvalWarm is one warm POST /v1/eval through the full handler stack
// against a reusable request and a null writer. Every layer below the
// service has already solved and cached the grid, so the measured cost is
// pure dataplane — request parse, response-byte-cache lookup, response
// write — and allocs/op is the budget the CI gate pins.
func serveEvalWarm(b *testing.B) {
	cache := scenario.NewCache()
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true}
	h := service.New(service.Config{Engine: eng, Cache: cache, MaxJobs: 4}).Handler()
	payload, err := json.Marshal(service.EvalRequest{Grid: ServeGrid(1)})
	if err != nil {
		b.Fatal(err)
	}
	body := &replayBody{bytes.NewReader(payload)}
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", body)
	w := &nullRW{h: http.Header{}}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		b.Fatalf("prime request: status %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Seek(0, 0)
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}
