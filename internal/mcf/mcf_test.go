package mcf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/rrg"
	"repro/internal/traffic"
)

// tol is the acceptance band for the ε-approximate solver in tests that
// compare against closed-form LP optima.
const tol = 0.12

func near(t *testing.T, got, want, tolerance float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tolerance*want {
		t.Fatalf("%s: got %v, want %v ± %v%%", msg, got, want, tolerance*100)
	}
}

func solve(t *testing.T, g *graph.Graph, flows []traffic.Flow, eps float64) *Result {
	t.Helper()
	res, err := Solve(g, flows, Options{Epsilon: eps})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestSingleLink(t *testing.T) {
	g := graph.New(2)
	g.AddLink(0, 1, 1)
	res := solve(t, g, []traffic.Flow{{Src: 0, Dst: 1, Demand: 1}}, 0.05)
	near(t, res.Throughput, 1.0, tol, "single link throughput")
	if res.Throughput > 1+1e-9 {
		t.Fatalf("throughput %v exceeds capacity bound 1", res.Throughput)
	}
}

func TestSingleLinkBothDirections(t *testing.T) {
	g := graph.New(2)
	g.AddLink(0, 1, 1)
	flows := []traffic.Flow{{Src: 0, Dst: 1, Demand: 1}, {Src: 1, Dst: 0, Demand: 1}}
	res := solve(t, g, flows, 0.05)
	// Each direction has independent capacity 1.
	near(t, res.Throughput, 1.0, tol, "bidirectional throughput")
}

func TestSharedBottleneck(t *testing.T) {
	// Path 0-1-2: commodities 0->1 and 0->2 share arc 0->1 of capacity 1.
	g := graph.New(3)
	g.AddLink(0, 1, 1)
	g.AddLink(1, 2, 1)
	flows := []traffic.Flow{{Src: 0, Dst: 1, Demand: 1}, {Src: 0, Dst: 2, Demand: 1}}
	res := solve(t, g, flows, 0.05)
	near(t, res.Throughput, 0.5, tol, "shared bottleneck throughput")
}

func TestDemandScaling(t *testing.T) {
	// Demand 2 on a unit link: λ = 0.5.
	g := graph.New(2)
	g.AddLink(0, 1, 1)
	res := solve(t, g, []traffic.Flow{{Src: 0, Dst: 1, Demand: 2}}, 0.05)
	near(t, res.Throughput, 0.5, tol, "demand-2 throughput")
}

func TestStarPermutation(t *testing.T) {
	// Star with center 0 and leaves 1..5; leaf i sends to leaf i+1.
	// Every flow uses its private up-arc and down-arc: λ = 1 exactly.
	const k = 5
	g := graph.New(k + 1)
	for i := 1; i <= k; i++ {
		g.AddLink(0, i, 1)
	}
	var flows []traffic.Flow
	for i := 1; i <= k; i++ {
		j := i%k + 1
		flows = append(flows, traffic.Flow{Src: i, Dst: j, Demand: 1})
	}
	res := solve(t, g, flows, 0.05)
	near(t, res.Throughput, 1.0, tol, "star permutation throughput")
	if res.Stretch < 1-1e-9 {
		t.Fatalf("stretch %v < 1", res.Stretch)
	}
}

func TestTwoClusterSingleBridge(t *testing.T) {
	// Two K4s joined by one link; two commodities cross it in the same
	// direction: λ = 0.5.
	g := graph.New(8)
	for c := 0; c < 2; c++ {
		base := 4 * c
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				g.AddLink(base+i, base+j, 1)
			}
		}
	}
	g.AddLink(0, 4, 1)
	flows := []traffic.Flow{
		{Src: 1, Dst: 5, Demand: 1},
		{Src: 2, Dst: 6, Demand: 1},
	}
	res := solve(t, g, flows, 0.05)
	near(t, res.Throughput, 0.5, tol, "bridge-limited throughput")
}

func TestMultipathBeatsSinglePath(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3, one commodity 0->3 with demand 2.
	// Two disjoint 2-hop paths: λ = 1.
	g := graph.New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(1, 3, 1)
	g.AddLink(0, 2, 1)
	g.AddLink(2, 3, 1)
	res := solve(t, g, []traffic.Flow{{Src: 0, Dst: 3, Demand: 2}}, 0.05)
	near(t, res.Throughput, 1.0, tol, "diamond multipath throughput")
}

func TestFeasibilityInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := rrg.Regular(rng, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		g.SetServers(u, 3)
	}
	h := traffic.HostsOf(g)
	tm := traffic.Permutation(rng, h)
	res := solve(t, g, tm.Flows, 0.08)
	if res.Throughput <= 0 {
		t.Fatalf("non-positive throughput %v", res.Throughput)
	}
	for a, f := range res.ArcFlow {
		if f > g.Arc(a).Cap+1e-9 {
			t.Fatalf("arc %d overloaded: flow %v > cap %v", a, f, g.Arc(a).Cap)
		}
		if res.ArcUtil[a] < -1e-12 || res.ArcUtil[a] > 1+1e-9 {
			t.Fatalf("arc %d utilization %v out of [0,1]", a, res.ArcUtil[a])
		}
	}
	if res.Stretch < 1-1e-9 {
		t.Fatalf("stretch %v < 1", res.Stretch)
	}
	if res.Utilization <= 0 || res.Utilization > 1+1e-9 {
		t.Fatalf("utilization %v out of (0,1]", res.Utilization)
	}
}

func TestAgainstMaxFlowSingleCommodity(t *testing.T) {
	// For a single commodity, max concurrent flow with demand d equals
	// maxflow/d. Cross-check GK against Dinic on random graphs.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		g, err := rrg.Regular(rng, 12, 3)
		if err != nil {
			t.Fatal(err)
		}
		nw := maxflow.NewNetwork(g)
		s, d := 0, 6
		exact := nw.MaxFlow(s, d)
		res := solve(t, g, []traffic.Flow{{Src: s, Dst: d, Demand: 1}}, 0.05)
		near(t, res.Throughput, exact, tol, "GK vs Dinic")
		if res.Throughput > exact+1e-9 {
			t.Fatalf("GK %v exceeds exact max flow %v", res.Throughput, exact)
		}
	}
}

func TestUnreachable(t *testing.T) {
	g := graph.New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(2, 3, 1)
	_, err := Solve(g, []traffic.Flow{{Src: 0, Dst: 3, Demand: 1}}, Options{})
	if err == nil {
		t.Fatal("expected error for disconnected commodity")
	}
}

func TestEmptyFlows(t *testing.T) {
	g := graph.New(2)
	g.AddLink(0, 1, 1)
	res, err := Solve(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Throughput, 1) {
		t.Fatalf("empty TM throughput %v, want +Inf", res.Throughput)
	}
}

func TestInvalidCommodity(t *testing.T) {
	g := graph.New(2)
	g.AddLink(0, 1, 1)
	if _, err := Solve(g, []traffic.Flow{{Src: 0, Dst: 0, Demand: 1}}, Options{}); err == nil {
		t.Fatal("expected error for self-commodity")
	}
	if _, err := Solve(g, []traffic.Flow{{Src: 0, Dst: 1, Demand: 0}}, Options{}); err == nil {
		t.Fatal("expected error for zero demand")
	}
	// NaN passes both ε range comparisons and would skip the potential
	// loop, returning a zero throughput as if it were solved.
	if _, err := Solve(g, []traffic.Flow{{Src: 0, Dst: 1, Demand: 1}}, Options{Epsilon: math.NaN()}); err == nil {
		t.Fatal("expected error for NaN epsilon")
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := rrg.Regular(rng, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		g.SetServers(u, 2)
	}
	h := traffic.HostsOf(g)
	tm := traffic.Permutation(rand.New(rand.NewSource(5)), h)
	a := solve(t, g, tm.Flows, 0.1)
	b := solve(t, g, tm.Flows, 0.1)
	if a.Throughput != b.Throughput {
		t.Fatalf("non-deterministic: %v vs %v", a.Throughput, b.Throughput)
	}
}

func TestEpsilonImprovesAccuracy(t *testing.T) {
	// Tighter epsilon should not give a materially worse answer on a
	// known-optimum instance.
	g := graph.New(3)
	g.AddLink(0, 1, 1)
	g.AddLink(1, 2, 1)
	flows := []traffic.Flow{{Src: 0, Dst: 2, Demand: 1}}
	loose := solve(t, g, flows, 0.2)
	tight := solve(t, g, flows, 0.03)
	if tight.Throughput < loose.Throughput-0.02 {
		t.Fatalf("eps=0.03 gave %v, worse than eps=0.2's %v", tight.Throughput, loose.Throughput)
	}
	near(t, tight.Throughput, 1.0, 0.05, "tight epsilon accuracy")
}
