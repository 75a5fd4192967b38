// Benchmarks regenerating every figure of the paper's evaluation (quick
// grids; see cmd/topobench for full-fidelity runs), plus micro-benchmarks
// and ablations for the core algorithms. Every body cmd/benchjson also
// runs lives once in internal/benchsuite; the benchmarks here run those
// suite entries under their usual names.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/packet"
	"repro/internal/rrg"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// One benchmark per paper figure.

func BenchmarkFig1a(b *testing.B)  { benchsuite.Figure("1a")(b) }
func BenchmarkFig1b(b *testing.B)  { benchsuite.Figure("1b")(b) }
func BenchmarkFig2a(b *testing.B)  { benchsuite.Run(b, "Fig2a") }
func BenchmarkFig2b(b *testing.B)  { benchsuite.Figure("2b")(b) }
func BenchmarkFig3(b *testing.B)   { benchsuite.Figure("3")(b) }
func BenchmarkFig4a(b *testing.B)  { benchsuite.Figure("4a")(b) }
func BenchmarkFig4b(b *testing.B)  { benchsuite.Figure("4b")(b) }
func BenchmarkFig4c(b *testing.B)  { benchsuite.Figure("4c")(b) }
func BenchmarkFig5(b *testing.B)   { benchsuite.Figure("5")(b) }
func BenchmarkFig6a(b *testing.B)  { benchsuite.Figure("6a")(b) }
func BenchmarkFig6b(b *testing.B)  { benchsuite.Figure("6b")(b) }
func BenchmarkFig6c(b *testing.B)  { benchsuite.Figure("6c")(b) }
func BenchmarkFig7a(b *testing.B)  { benchsuite.Figure("7a")(b) }
func BenchmarkFig7b(b *testing.B)  { benchsuite.Figure("7b")(b) }
func BenchmarkFig8a(b *testing.B)  { benchsuite.Figure("8a")(b) }
func BenchmarkFig8b(b *testing.B)  { benchsuite.Figure("8b")(b) }
func BenchmarkFig8c(b *testing.B)  { benchsuite.Figure("8c")(b) }
func BenchmarkFig9a(b *testing.B)  { benchsuite.Run(b, "Fig9a") }
func BenchmarkFig9b(b *testing.B)  { benchsuite.Figure("9b")(b) }
func BenchmarkFig9c(b *testing.B)  { benchsuite.Figure("9c")(b) }
func BenchmarkFig10a(b *testing.B) { benchsuite.Figure("10a")(b) }
func BenchmarkFig10b(b *testing.B) { benchsuite.Figure("10b")(b) }
func BenchmarkFig11(b *testing.B)  { benchsuite.Figure("11")(b) }
func BenchmarkFig12a(b *testing.B) { benchsuite.Figure("12a")(b) }
func BenchmarkFig12b(b *testing.B) { benchsuite.Figure("12b")(b) }
func BenchmarkFig12c(b *testing.B) { benchsuite.Figure("12c")(b) }
func BenchmarkFig13(b *testing.B)  { benchsuite.Figure("13")(b) }

// ---- micro-benchmarks for the substrates ----

func BenchmarkSolverScale(b *testing.B)        { benchsuite.Run(b, "SolverScale") }
func BenchmarkSolverEpsilon(b *testing.B)      { benchsuite.Run(b, "SolverEpsilon") }
func BenchmarkSolverRepair(b *testing.B)       { benchsuite.Run(b, "SolverRepair") }
func BenchmarkSolverWarmStart(b *testing.B)    { benchsuite.Run(b, "SolverWarmStart") }
func BenchmarkScenarioCache(b *testing.B)      { benchsuite.Run(b, "ScenarioCache") }
func BenchmarkStoreColdWarm(b *testing.B)      { benchsuite.Run(b, "StoreColdWarm") }
func BenchmarkRemoteStore(b *testing.B)        { benchsuite.Run(b, "RemoteStore") }
func BenchmarkServeEvalWarm(b *testing.B)      { benchsuite.Run(b, "ServeEvalWarm") }
func BenchmarkBisectionBandwidth(b *testing.B) { benchsuite.Run(b, "BisectionBandwidth") }
func BenchmarkGraphTree(b *testing.B)          { benchsuite.Run(b, "GraphTree") }

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
