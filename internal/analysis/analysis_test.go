package analysis

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/rrg"
	"repro/internal/traffic"
)

func solved(t *testing.T) (*graph.Graph, *mcf.Result, *traffic.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	g, err := rrg.Regular(rng, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		g.SetServers(u, 3)
	}
	h := traffic.HostsOf(g)
	tm := traffic.Permutation(rng, h)
	res, err := mcf.Solve(g, tm.Flows, mcf.Options{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return g, res, tm
}

func TestDecomposeIdentity(t *testing.T) {
	g, res, tm := solved(t)
	d := Decompose(g, res)
	if d.Capacity != g.TotalCapacity() {
		t.Fatal("capacity mismatch")
	}
	// T ≈ C·U/(⟨D⟩·AS·f) where f is total demand (the solver routes every
	// commodity the same multiple of its demand).
	id := d.Identity(tm.TotalDemand())
	if math.Abs(id-d.Throughput) > 0.1*d.Throughput {
		t.Fatalf("identity %v vs throughput %v", id, d.Throughput)
	}
}

func TestIdentityDegenerate(t *testing.T) {
	var d Decomposition
	if d.Identity(0) != 0 || d.Identity(10) != 0 {
		t.Fatal("degenerate identity should be 0")
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{1, 2, 3}
	ds := []Decomposition{
		{Throughput: 0.2, Utilization: 0.5, SPL: 2, Stretch: 1.2},
		{Throughput: 0.4, Utilization: 1.0, SPL: 2.5, Stretch: 1.1}, // peak
		{Throughput: 0.3, Utilization: 0.8, SPL: 3, Stretch: 1.3},
	}
	ns := Normalize(x, ds)
	if ns.Throughput[1] != 1 || ns.Util[1] != 1 || ns.InvSPL[1] != 1 || ns.InvStretch[1] != 1 {
		t.Fatalf("peak point not normalized to 1: %+v", ns)
	}
	if math.Abs(ns.Throughput[0]-0.5) > 1e-12 {
		t.Fatalf("normalized throughput %v, want 0.5", ns.Throughput[0])
	}
	// InvSPL at index 0: (1/2)/(1/2.5) = 1.25.
	if math.Abs(ns.InvSPL[0]-1.25) > 1e-12 {
		t.Fatalf("normalized inv SPL %v, want 1.25", ns.InvSPL[0])
	}
}

func TestNormalizeZeroSafe(t *testing.T) {
	ns := Normalize([]float64{1}, []Decomposition{{}})
	if ns.Throughput[0] != 0 || ns.InvSPL[0] != 0 {
		t.Fatal("zero decomposition should normalize to zeros, not NaN")
	}
	for _, v := range [][]float64{ns.Throughput, ns.Util, ns.InvSPL, ns.InvStretch} {
		for _, y := range v {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				t.Fatal("NaN/Inf leaked from Normalize")
			}
		}
	}
}
