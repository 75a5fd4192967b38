package maxflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rrg"
)

func TestSingleLink(t *testing.T) {
	g := graph.New(2)
	g.AddLink(0, 1, 3)
	nw := NewNetwork(g)
	if got := nw.MaxFlow(0, 1); got != 3 {
		t.Fatalf("max flow %v, want 3", got)
	}
	// Reusable for other terminals.
	if got := nw.MaxFlow(1, 0); got != 3 {
		t.Fatalf("reverse max flow %v, want 3", got)
	}
}

func TestSeriesBottleneck(t *testing.T) {
	g := graph.New(3)
	g.AddLink(0, 1, 5)
	g.AddLink(1, 2, 2)
	nw := NewNetwork(g)
	if got := nw.MaxFlow(0, 2); got != 2 {
		t.Fatalf("max flow %v, want 2", got)
	}
}

func TestParallelPaths(t *testing.T) {
	// Diamond with unit links: two disjoint paths.
	g := graph.New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(1, 3, 1)
	g.AddLink(0, 2, 1)
	g.AddLink(2, 3, 1)
	nw := NewNetwork(g)
	if got := nw.MaxFlow(0, 3); got != 2 {
		t.Fatalf("max flow %v, want 2", got)
	}
}

func TestRegularGraphDegreeCut(t *testing.T) {
	// In an r-regular unit-capacity graph the trivial cut around a node
	// bounds the flow by r; for an RRG it is typically exactly r.
	rng := rand.New(rand.NewSource(3))
	g, err := rrg.Regular(rng, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(g)
	got := nw.MaxFlow(0, 9)
	if got > 4+1e-9 {
		t.Fatalf("flow %v exceeds degree cut 4", got)
	}
	if got < 1 {
		t.Fatalf("flow %v suspiciously low for a connected graph", got)
	}
}

func TestMinCutMatchesFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g, err := rrg.Regular(rng, 12, 3)
		if err != nil {
			t.Fatal(err)
		}
		nw := NewNetwork(g)
		s, d := 0, 6
		value, side := nw.MinCut(s, d)
		if !side[s] || side[d] {
			t.Fatal("cut does not separate terminals")
		}
		// The graph cut capacity (one direction, s-side to t-side) must
		// equal the max flow.
		if cut := g.CutCapacity(side); math.Abs(cut-value) > 1e-9 {
			t.Fatalf("min cut %v != flow %v", cut, value)
		}
	}
}

func TestDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(2, 3, 1)
	nw := NewNetwork(g)
	if got := nw.MaxFlow(0, 3); got != 0 {
		t.Fatalf("flow across components %v, want 0", got)
	}
}

func TestBisectionBandwidthRing(t *testing.T) {
	// A ring's bisection is 2 links (one direction).
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		g.AddLink(i, (i+1)%8, 1)
	}
	got := BisectionBandwidth(g, 4)
	if got != 2 {
		t.Fatalf("ring bisection %v, want 2", got)
	}
}

func TestBisectionBandwidthBarbell(t *testing.T) {
	// Two K4s joined by one link: bisection 1.
	g := graph.New(8)
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				g.AddLink(4*c+i, 4*c+j, 1)
			}
		}
	}
	g.AddLink(0, 4, 1)
	if got := BisectionBandwidth(g, 6); got != 1 {
		t.Fatalf("barbell bisection %v, want 1", got)
	}
}

// Property: max-flow is symmetric on our undirected-style networks and
// bounded by both endpoint degrees.
func TestQuickFlowBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := rrg.Regular(rng, 10, 3)
		if err != nil {
			return true
		}
		nw := NewNetwork(g)
		a := nw.MaxFlow(0, 5)
		b := nw.MaxFlow(5, 0)
		return math.Abs(a-b) < 1e-9 && a <= 3+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
