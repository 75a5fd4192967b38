// Benchmarks regenerating every figure of the paper's evaluation (quick
// grids; see cmd/topobench for full-fidelity runs), plus micro-benchmarks
// and ablations for the core algorithms.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/mcf"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/rrg"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// benchOpts are the reduced settings used so every figure regenerates in
// benchmark time. The series shapes are preserved; only grids and run
// counts shrink.
func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Runs: 2, Seed: 1}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	runner := experiments.Registry[id]
	if runner == nil {
		b.Fatalf("unknown figure %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := runner(benchOpts())
		if err != nil {
			b.Fatalf("figure %s: %v", id, err)
		}
		if len(fig.Series) == 0 {
			b.Fatalf("figure %s produced no series", id)
		}
	}
}

// One benchmark per paper figure.

func BenchmarkFig1a(b *testing.B)  { benchFigure(b, "1a") }
func BenchmarkFig1b(b *testing.B)  { benchFigure(b, "1b") }
func BenchmarkFig2a(b *testing.B)  { benchFigure(b, "2a") }
func BenchmarkFig2b(b *testing.B)  { benchFigure(b, "2b") }
func BenchmarkFig3(b *testing.B)   { benchFigure(b, "3") }
func BenchmarkFig4a(b *testing.B)  { benchFigure(b, "4a") }
func BenchmarkFig4b(b *testing.B)  { benchFigure(b, "4b") }
func BenchmarkFig4c(b *testing.B)  { benchFigure(b, "4c") }
func BenchmarkFig5(b *testing.B)   { benchFigure(b, "5") }
func BenchmarkFig6a(b *testing.B)  { benchFigure(b, "6a") }
func BenchmarkFig6b(b *testing.B)  { benchFigure(b, "6b") }
func BenchmarkFig6c(b *testing.B)  { benchFigure(b, "6c") }
func BenchmarkFig7a(b *testing.B)  { benchFigure(b, "7a") }
func BenchmarkFig7b(b *testing.B)  { benchFigure(b, "7b") }
func BenchmarkFig8a(b *testing.B)  { benchFigure(b, "8a") }
func BenchmarkFig8b(b *testing.B)  { benchFigure(b, "8b") }
func BenchmarkFig8c(b *testing.B)  { benchFigure(b, "8c") }
func BenchmarkFig9a(b *testing.B)  { benchFigure(b, "9a") }
func BenchmarkFig9b(b *testing.B)  { benchFigure(b, "9b") }
func BenchmarkFig9c(b *testing.B)  { benchFigure(b, "9c") }
func BenchmarkFig10a(b *testing.B) { benchFigure(b, "10a") }
func BenchmarkFig10b(b *testing.B) { benchFigure(b, "10b") }
func BenchmarkFig11(b *testing.B)  { benchFigure(b, "11") }
func BenchmarkFig12a(b *testing.B) { benchFigure(b, "12a") }
func BenchmarkFig12b(b *testing.B) { benchFigure(b, "12b") }
func BenchmarkFig12c(b *testing.B) { benchFigure(b, "12c") }
func BenchmarkFig13(b *testing.B)  { benchFigure(b, "13") }

// ---- micro-benchmarks for the substrates ----

func solverInstance(b *testing.B, n, r, sps int) (*graph.Graph, []traffic.Flow) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g, err := rrg.Regular(rng, n, r)
	if err != nil {
		b.Fatal(err)
	}
	for u := 0; u < n; u++ {
		g.SetServers(u, sps)
	}
	tm := traffic.Permutation(rng, traffic.HostsOf(g))
	return g, tm.Flows
}

// Ablation: solver cost vs. approximation quality. The paper's results are
// ratios, so ε ≈ 0.1 suffices; this quantifies what tighter ε costs.
func BenchmarkSolverEpsilon(b *testing.B) {
	g, flows := solverInstance(b, 40, 10, 5)
	for _, eps := range []float64{0.2, 0.1, 0.05} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mcf.Solve(g, flows, mcf.Options{Epsilon: eps}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: the scenario engine's content-addressed solve cache on a
// repeated-instance sweep. "cold" solves the whole grid; "warm" re-runs
// the identical grid against a primed cache, so every point is a content
// hash lookup — the figures-sharing-instances case.
func BenchmarkScenarioCache(b *testing.B) {
	grid, err := scenario.ParseGrid("topo=rrg:n=40,sps=5 traffic=permutation eval=mcf sweep=deg:6..14:4 runs=2 eps=0.12 seed=1")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := &scenario.Engine{Parallel: 1}
			if _, _, err := grid.Run(e); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		e := &scenario.Engine{Parallel: 1, Cache: scenario.NewCache()}
		if _, _, err := grid.Run(e); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := grid.Run(e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: the persistent result store's cross-process restart win on
// the same sweep. "cold" is a fresh process over an empty store dir
// (solve + persist), "warm" is a restarted process — fresh cache, fresh
// store handle — over a primed dir, answering every point from disk.
func BenchmarkStoreColdWarm(b *testing.B) {
	grid, err := scenario.ParseGrid("topo=rrg:n=40,sps=5 traffic=permutation eval=mcf sweep=deg:6..14:4 runs=2 eps=0.12 seed=1")
	if err != nil {
		b.Fatal(err)
	}
	runGrid := func(dir string) {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		cache := scenario.NewCache()
		cache.SetBackend(st)
		e := &scenario.Engine{Parallel: 1, Cache: cache}
		if _, _, err := grid.Run(e); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			b.StartTimer()
			runGrid(dir)
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		runGrid(dir)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runGrid(dir)
		}
	})
}

// warmLadderPoints builds the failure ladder of the incremental-evaluation
// benchmarks: the PR 4 sweep instance (rrg n=40 deg=10 sps=5, permutation,
// mcf, eps=0.12, seed=1) degraded at frac=0.05..0.2. All rungs share one
// seed, so they share one frac=0 parent — the "what changed" ladder a
// warm-started engine answers from that parent's witness.
func warmLadderPoints(tb testing.TB) []scenario.Point {
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

// warmExpandPoints is the expansion-step variant: one growth step on the
// same instance, whose parent is the unexpanded base fabric.
func warmExpandPoints(tb testing.TB) []scenario.Point {
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
	eng := &scenario.Engine{Parallel: 1, Cache: prime, WarmStart: true}
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
			w, ok := prime.Get(k)
			if !ok {
				tb.Fatalf("parent solve exported no witness under %s", k)
			}
			wit[k] = w
		}
	}
	return wit
}

// Ablation: incremental what-if evaluation. Each sub-benchmark solves the
// same delta-shaped points cold (from-scratch Fleischer solves) and warm
// (seeded from the parent's witness, flowcheck-recertified); the
// cold/warm ns/op ratio is the PR 9 acceptance number (≥3× on the
// ladder). Priming happens outside the timer, and the warm iterations
// carry witnesses only, so a warm op is parent-witness mapping + seeded
// solve + certification — the real marginal cost of answering "what if"
// against an already-evaluated fabric.
func BenchmarkSolverWarmStart(b *testing.B) {
	for _, c := range []struct {
		name string
		pts  func(testing.TB) []scenario.Point
	}{{"ladder", warmLadderPoints}, {"expand", warmExpandPoints}} {
		pts := c.pts(b)
		b.Run(c.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := &scenario.Engine{Parallel: 1}
				if _, err := eng.MeasureRuns(pts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/warm", func(b *testing.B) {
			wit := primeWitnesses(b, pts)
			runsTotal := 0
			for _, p := range pts {
				runsTotal += p.Runs
			}
			b.ReportAllocs()
			b.ResetTimer()
			var last *scenario.Engine
			for i := 0; i < b.N; i++ {
				cache := scenario.NewCache()
				for k, v := range wit {
					cache.Put(k, v)
				}
				eng := &scenario.Engine{Parallel: 1, Cache: cache, WarmStart: true}
				if _, err := eng.MeasureRuns(pts); err != nil {
					b.Fatal(err)
				}
				last = eng
			}
			b.StopTimer()
			if ws := last.WarmStats(); ws.Starts != int64(runsTotal) {
				b.Fatalf("warm iteration did not warm-start every run: %+v (want %d starts)", ws, runsTotal)
			}
		})
	}
}

// Ablation: solver scaling with network size at fixed degree (the Fig. 2
// regime).
func BenchmarkSolverScale(b *testing.B) {
	for _, n := range []int{20, 40, 80} {
		g, flows := solverInstance(b, n, 10, 5)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mcf.Solve(g, flows, mcf.Options{Epsilon: 0.1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: the phase-parallel tree prebuild's scaling with worker count
// on the Fig. 2 benchmark instance. The solver's output is byte-identical
// across worker counts (TestSolverDeterministicAcrossWorkers); only
// wall-clock moves, by parallelizing the predicted-stale tree builds each
// phase front-loads. The process-wide semaphore is widened to the worker
// count so the measurement reflects the requested parallelism rather than
// the machine's default cap.
func BenchmarkSolverPhasePar(b *testing.B) {
	g, flows := solverInstance(b, 80, 10, 5)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			runner.SetMaxInFlight(w)
			defer runner.SetMaxInFlight(0)
			for i := 0; i < b.N; i++ {
				if _, err := mcf.Solve(g, flows, mcf.Options{Epsilon: 0.1, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: dynamic shortest-path-tree repair vs full rebuild on
// phase-to-phase length updates. Between two refreshes of one source's
// tree, the Garg–Könemann solver grows the arcs other sources routed on —
// from this tree's perspective a scattering of mostly non-tree and deep
// tree arcs. Each iteration applies one such cross-traffic batch and then
// brings the tree current, either incrementally (Repair) or from scratch
// (Run). The growth factor is kept infinitesimal so lengths stay finite
// over any b.N while leaving the repair work (which depends only on which
// arcs grew) unchanged. Growth concentrated on the tree's own root paths
// is the opposite regime — stale subtrees hang off the root and repair
// degenerates to a rebuild — which is why the solver budgets repairs and
// falls back adaptively (see internal/mcf).
func BenchmarkSolverRepair(b *testing.B) {
	for _, c := range []struct{ n, r int }{{80, 10}, {400, 6}} {
		g, err := rrg.Regular(rand.New(rand.NewSource(1)), c.n, c.r)
		if err != nil {
			b.Fatal(err)
		}
		m := g.NumArcs()
		prep := func() (*graph.DijkstraScratch, []float64, *rand.Rand) {
			lens := make([]float64, m)
			rng := rand.New(rand.NewSource(2))
			for a := range lens {
				lens[a] = 1 + 1e-3*rng.Float64()
			}
			d := g.NewDijkstraScratch()
			d.Run(0, lens, nil)
			return d, lens, rng
		}
		growBatch := func(lens []float64, rng *rand.Rand, changed []int32) []int32 {
			changed = changed[:0]
			for k := 0; k < 12; k++ {
				a := int32(rng.Intn(m))
				lens[a] *= 1 + 1e-9
				changed = append(changed, a)
			}
			return changed
		}
		b.Run(fmt.Sprintf("n=%d/repair", c.n), func(b *testing.B) {
			d, lens, rng := prep()
			var changed []int32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				changed = growBatch(lens, rng, changed)
				if !d.Repair(lens, changed) {
					b.Fatal("repair refused")
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/rebuild", c.n), func(b *testing.B) {
			d, lens, rng := prep()
			var changed []int32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				changed = growBatch(lens, rng, changed)
				d.Run(0, lens, nil)
			}
		})
	}
}

func BenchmarkRRGGeneration(b *testing.B) {
	for _, c := range []struct{ n, r int }{{40, 10}, {200, 10}, {1000, 4}} {
		b.Run(fmt.Sprintf("n=%d_r=%d", c.n, c.r), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rrg.Regular(rng, c.n, c.r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTwoClusterGeneration(b *testing.B) {
	degA := make([]int, 20)
	degB := make([]int, 40)
	for i := range degA {
		degA[i] = 12
	}
	for i := range degB {
		degB[i] = 6
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rrg.TwoCluster(rng, rrg.TwoClusterSpec{
			DegA: degA, DegB: degB, CrossLinks: 60, LinkCap: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: bisection bandwidth estimation, dominated by the
// Kernighan–Lin refinement (incremental swap gains since PR 1).
func BenchmarkBisectionBandwidth(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := rrg.Regular(rng, 200, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v := maxflow.BisectionBandwidth(g, 4); v <= 0 {
			b.Fatal("non-positive bisection estimate")
		}
	}
}

func BenchmarkASPL(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := rrg.Regular(rng, 200, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := g.ASPL(); !ok {
			b.Fatal("disconnected")
		}
	}
}

func BenchmarkPacketSim(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := rrg.Regular(rng, 24, 6)
	if err != nil {
		b.Fatal(err)
	}
	var flows []packet.FlowSpec
	for i := 0; i < 24; i++ {
		flows = append(flows, packet.FlowSpec{Src: i, Dst: (i + 11) % 24})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := packet.Simulate(g, flows, packet.Config{
			SubflowsPerFlow: 4, Warmup: 20, Measure: 100,
		}, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRewiredVL2Build(b *testing.B) {
	cfg := topo.VL2Config{DA: 12, DI: 16}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topo.RewiredVL2(rng, cfg, cfg.NumToRs()); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the Fig. 12 headline at one scale — rewired VL2 vs VL2
// throughput at the designed size (not the full binary search).
func BenchmarkVL2VsRewiredThroughput(b *testing.B) {
	cfg := topo.VL2Config{DA: 8, DI: 8}
	vl2, err := topo.VL2(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rew, err := topo.RewiredVL2(rng, cfg, cfg.NumToRs())
	if err != nil {
		b.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"vl2": vl2, "rewired": rew} {
		b.Run(name, func(b *testing.B) {
			tm := traffic.Permutation(rand.New(rand.NewSource(2)), traffic.HostsOf(g))
			for i := 0; i < b.N; i++ {
				if _, err := mcf.Solve(g, tm.Flows, mcf.Options{Epsilon: 0.1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: optimal flow routing vs static ECMP vs Valiant load balancing
// on the same instance — the routing-quality gap that §8.2's MPTCP result
// closes dynamically.
func BenchmarkRoutingModels(b *testing.B) {
	g, flows := solverInstance(b, 40, 10, 5)
	b.Run("optimal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mcf.Solve(g, flows, mcf.Options{Epsilon: 0.1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ecmp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := routing.ECMP(g, flows); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vlb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := routing.VLB(g, flows); err != nil {
				b.Fatal(err)
			}
		}
	})
}
