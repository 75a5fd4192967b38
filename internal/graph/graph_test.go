package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddLink(i, (i+1)%n, 1)
	}
	return g
}

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.NumLinks() != 0 || g.NumArcs() != 0 {
		t.Fatalf("unexpected empty graph shape: %d nodes, %d links", g.N(), g.NumLinks())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddLinkBasics(t *testing.T) {
	g := New(3)
	id := g.AddLink(0, 1, 2.5)
	if id != 0 {
		t.Fatalf("first link id = %d", id)
	}
	if got := g.LinkCapacity(0); got != 2.5 {
		t.Fatalf("capacity %v", got)
	}
	u, v := g.LinkEnds(0)
	if u != 0 || v != 1 {
		t.Fatalf("ends %d,%d", u, v)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatal("degree bookkeeping wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddLinkPanics(t *testing.T) {
	cases := []func(){
		func() { New(2).AddLink(0, 0, 1) },
		func() { New(2).AddLink(0, 5, 1) },
		func() { New(2).AddLink(-1, 0, 1) },
		func() { New(2).AddLink(0, 1, 0) },
		func() { New(2).AddLink(0, 1, -3) },
		func() { New(-1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestReverseArcPairing(t *testing.T) {
	g := New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(2, 3, 7)
	for a := 0; a < g.NumArcs(); a++ {
		r := Reverse(a)
		if g.Arc(a).From != g.Arc(r).To || g.Arc(a).To != g.Arc(r).From {
			t.Fatalf("arc %d and reverse %d disagree", a, r)
		}
		if g.Arc(a).Cap != g.Arc(r).Cap {
			t.Fatalf("asymmetric caps on arc %d", a)
		}
	}
}

func TestMultigraph(t *testing.T) {
	g := New(2)
	g.AddLink(0, 1, 1)
	g.AddLink(0, 1, 2)
	if g.NumLinks() != 2 || g.Degree(0) != 2 {
		t.Fatal("parallel links not supported")
	}
	if got := g.TotalCapacity(); got != 6 {
		t.Fatalf("total capacity %v, want 6", got)
	}
	if n := g.Neighbors(0); len(n) != 1 || n[0] != 1 {
		t.Fatalf("neighbors dedup failed: %v", n)
	}
}

func TestServers(t *testing.T) {
	g := New(3)
	g.SetServers(0, 4)
	g.SetServers(2, 6)
	if g.TotalServers() != 10 || g.Servers(1) != 0 {
		t.Fatal("server bookkeeping wrong")
	}
}

func TestCutCapacities(t *testing.T) {
	// Square 0-1-2-3-0 with unit links; S = {0,1}.
	g := ring(4)
	inS := []bool{true, true, false, false}
	if got := g.CutCapacity(inS); got != 2 {
		t.Fatalf("one-direction cut %v, want 2", got)
	}
	if got := g.CrossCapacity(inS); got != 4 {
		t.Fatalf("bidirectional cut %v, want 4", got)
	}
}

func TestBFSAndASPLRing(t *testing.T) {
	g := ring(6)
	dist := g.BFS(0)
	want := []int{0, 1, 2, 3, 2, 1}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], w)
		}
	}
	aspl, ok := g.ASPL()
	if !ok {
		t.Fatal("ring not connected?")
	}
	// C6 distances from any node: 1,2,3,2,1 -> mean 9/5.
	if aspl != 9.0/5.0 {
		t.Fatalf("aspl %v, want 1.8", aspl)
	}
	d, _ := g.Diameter()
	if d != 3 {
		t.Fatalf("diameter %d, want 3", d)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(2, 3, 1)
	if g.IsConnected() {
		t.Fatal("should be disconnected")
	}
	if _, ok := g.ASPL(); ok {
		t.Fatal("ASPL should flag disconnection")
	}
	comp, n := g.Components()
	if n != 2 || comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Fatalf("components %v (%d)", comp, n)
	}
}

func TestClone(t *testing.T) {
	g := ring(5)
	g.SetServers(0, 3)
	c := g.Clone()
	c.AddLink(0, 2, 1)
	c.SetServers(1, 9)
	if g.NumLinks() != 5 || g.Servers(1) != 0 {
		t.Fatal("clone aliases original")
	}
	if c.NumLinks() != 6 || c.Servers(0) != 3 {
		t.Fatal("clone incomplete")
	}
}

func TestShortestPathDAGPaths(t *testing.T) {
	// Diamond: 0-1-3, 0-2-3: two shortest paths 0->3.
	g := New(4)
	g.AddLink(0, 1, 1)
	g.AddLink(1, 3, 1)
	g.AddLink(0, 2, 1)
	g.AddLink(2, 3, 1)
	paths := g.ShortestPathDAGPaths(0, 3, 10)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	for _, p := range paths {
		if p.Len() != 2 {
			t.Fatalf("path length %d, want 2", p.Len())
		}
		if g.Arc(int(p[0])).From != 0 || g.Arc(int(p[len(p)-1])).To != 3 {
			t.Fatal("path endpoints wrong")
		}
		// Contiguity.
		for i := 1; i < len(p); i++ {
			if g.Arc(int(p[i])).From != g.Arc(int(p[i-1])).To {
				t.Fatal("path not contiguous")
			}
		}
	}
	if got := g.ShortestPathDAGPaths(0, 3, 1); len(got) != 1 {
		t.Fatalf("k=1 returned %d paths", len(got))
	}
	if got := g.ShortestPathDAGPaths(0, 3, 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestShortestPathDAGPathsUnreachable(t *testing.T) {
	g := New(3)
	g.AddLink(0, 1, 1)
	if p := g.ShortestPathDAGPaths(0, 2, 5); p != nil {
		t.Fatal("unreachable should return nil")
	}
}

func TestDijkstraMatchesBFSOnUnitLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := New(30)
	for i := 1; i < 30; i++ {
		g.AddLink(i, rng.Intn(i), 1) // random tree
	}
	for k := 0; k < 20; k++ { // extra random links, parallel ones included
		u, v := rng.Intn(30), rng.Intn(30)
		if u != v {
			g.AddLink(u, v, 1)
		}
	}
	lens := make([]float64, g.NumArcs())
	for i := range lens {
		lens[i] = 1
	}
	dist, via := g.Dijkstra(0, lens)
	bfs := g.BFS(0)
	for i := range bfs {
		if int(dist[i]) != bfs[i] {
			t.Fatalf("node %d: dijkstra %v, bfs %d", i, dist[i], bfs[i])
		}
	}
	if via[0] != -1 {
		t.Fatal("source should have no via arc")
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// 0-1 expensive direct, 0-2-1 cheap detour.
	g := New(3)
	g.AddLink(0, 1, 1) // arcs 0,1
	g.AddLink(0, 2, 1) // arcs 2,3
	g.AddLink(2, 1, 1) // arcs 4,5
	lens := []float64{10, 10, 1, 1, 1, 1}
	dist, via := g.Dijkstra(0, lens)
	if dist[1] != 2 {
		t.Fatalf("dist[1] = %v, want 2 (via detour)", dist[1])
	}
	if via[1] != 4 {
		t.Fatalf("via[1] = %d, want arc 4", via[1])
	}
}

func TestIsRegular(t *testing.T) {
	g := ring(5)
	if r, ok := g.IsRegular(); !ok || r != 2 {
		t.Fatalf("IsRegular = %d,%v", r, ok)
	}
	g.AddLink(0, 2, 1)
	if _, ok := g.IsRegular(); ok {
		t.Fatal("should not be regular")
	}
}

// Property: for random graphs, degree sum equals twice the link count and
// BFS distances are symmetric.
func TestQuickProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8, extra uint8) bool {
		n := int(nRaw%20) + 2
		rng := rand.New(rand.NewSource(seed))
		g := New(n)
		for i := 1; i < n; i++ {
			g.AddLink(i, rng.Intn(i), 1)
		}
		for k := 0; k < int(extra%30); k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddLink(u, v, 1+rng.Float64())
			}
		}
		if err := g.Validate(); err != nil {
			return false
		}
		sum := 0
		for u := 0; u < n; u++ {
			sum += g.Degree(u)
		}
		if sum != 2*g.NumLinks() {
			return false
		}
		// Distance symmetry on a few pairs.
		d0 := g.BFS(0)
		for v := 1; v < n; v++ {
			dv := g.BFS(v)
			if d0[v] != dv[0] {
				return false
			}
		}
		// Triangle inequality via node 0.
		d1 := g.BFS(1 % n)
		for v := 0; v < n; v++ {
			if d0[v] >= 0 && d1[0] >= 0 && d1[v] >= 0 && d0[v] > d1[0]+d1[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
