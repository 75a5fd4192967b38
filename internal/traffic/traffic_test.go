package traffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func hostsWith(servers ...int) (*graph.Graph, *Hosts) {
	g := graph.New(len(servers))
	for i := 1; i < len(servers); i++ {
		g.AddLink(i-1, i, 1)
	}
	for i, s := range servers {
		g.SetServers(i, s)
	}
	return g, HostsOf(g)
}

func TestHostsOf(t *testing.T) {
	_, h := hostsWith(2, 0, 3)
	if h.NumServers() != 5 {
		t.Fatalf("servers %d", h.NumServers())
	}
	want := []int{0, 0, 2, 2, 2}
	for s, sw := range h.SwitchOf {
		if sw != want[s] {
			t.Fatalf("server %d on switch %d, want %d", s, sw, want[s])
		}
	}
	if len(h.BySwitch[1]) != 0 || len(h.BySwitch[2]) != 3 {
		t.Fatal("BySwitch wrong")
	}
}

func TestDerangementProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%100) + 2
		perm := Derangement(rand.New(rand.NewSource(seed)), n)
		seen := make([]bool, n)
		for i, p := range perm {
			if p == i || p < 0 || p >= n || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDerangementTiny(t *testing.T) {
	if p := Derangement(rand.New(rand.NewSource(1)), 1); len(p) != 1 {
		t.Fatal("n=1 should return identity of length 1")
	}
	p := Derangement(rand.New(rand.NewSource(1)), 2)
	if p[0] != 1 || p[1] != 0 {
		t.Fatalf("n=2 derangement %v", p)
	}
}

func TestPermutationStructure(t *testing.T) {
	_, h := hostsWith(3, 3, 3, 3)
	rng := rand.New(rand.NewSource(4))
	m := Permutation(rng, h)
	if m.ServerFlows != 12 {
		t.Fatalf("server flows %d, want 12", m.ServerFlows)
	}
	// Aggregated demand must equal non-colocated server flows.
	if got := m.TotalDemand(); got != float64(12-m.Colocated) {
		t.Fatalf("total demand %v with %d colocated", got, m.Colocated)
	}
	for _, f := range m.Flows {
		if f.Src == f.Dst {
			t.Fatal("intra-switch commodity survived aggregation")
		}
		if f.Demand <= 0 {
			t.Fatal("non-positive demand")
		}
	}
	// Per-switch out-demand can't exceed its server count.
	out := map[int]float64{}
	for _, f := range m.Flows {
		out[f.Src] += f.Demand
	}
	for sw, d := range out {
		if d > 3 {
			t.Fatalf("switch %d sends %v > 3", sw, d)
		}
	}
}

func TestPermutationDeterminism(t *testing.T) {
	_, h := hostsWith(5, 5, 5)
	a := Permutation(rand.New(rand.NewSource(7)), h)
	b := Permutation(rand.New(rand.NewSource(7)), h)
	if len(a.Flows) != len(b.Flows) {
		t.Fatal("nondeterministic flows")
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("flow %d differs", i)
		}
	}
}

func TestAllToAll(t *testing.T) {
	_, h := hostsWith(2, 2)
	m := AllToAll(h)
	if m.ServerFlows != 12 { // 4·3
		t.Fatalf("server flows %d, want 12", m.ServerFlows)
	}
	if m.Colocated != 4 { // 2 per switch, ordered
		t.Fatalf("colocated %d, want 4", m.Colocated)
	}
	// Two commodities (0->1 and 1->0) of demand 4 each.
	if len(m.Flows) != 2 {
		t.Fatalf("flows %d, want 2", len(m.Flows))
	}
	for _, f := range m.Flows {
		if f.Demand != 4 {
			t.Fatalf("demand %v, want 4", f.Demand)
		}
	}
}

func TestChunkyFractions(t *testing.T) {
	_, h := hostsWith(4, 4, 4, 4, 4, 4)
	rng := rand.New(rand.NewSource(5))
	for _, frac := range []float64{0, 0.5, 1.0} {
		m, err := Chunky(rng, h, frac)
		if err != nil {
			t.Fatal(err)
		}
		// Conservation: every server sends exactly once.
		if got := m.TotalDemand() + float64(m.Colocated); got != 24 {
			t.Fatalf("frac=%v: demand+colocated %v, want 24", frac, got)
		}
	}
	if _, err := Chunky(rng, h, 1.5); err == nil {
		t.Fatal("fraction > 1 should error")
	}
	if _, err := Chunky(rng, h, -0.1); err == nil {
		t.Fatal("negative fraction should error")
	}
	if _, err := Chunky(rng, h, math.NaN()); err == nil {
		t.Fatal("NaN fraction should error")
	}
}

func TestChunky100IsToRLevel(t *testing.T) {
	_, h := hostsWith(3, 3, 3, 3)
	rng := rand.New(rand.NewSource(11))
	m, err := Chunky(rng, h, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// 100% chunky on equal ToRs: each ToR sends all 3 units to exactly one
	// other ToR.
	out := map[int]map[int]float64{}
	for _, f := range m.Flows {
		if out[f.Src] == nil {
			out[f.Src] = map[int]float64{}
		}
		out[f.Src][f.Dst] += f.Demand
	}
	for sw, dsts := range out {
		if len(dsts) != 1 {
			t.Fatalf("switch %d sends to %d ToRs, want 1", sw, len(dsts))
		}
		for _, d := range dsts {
			if d != 3 {
				t.Fatalf("switch %d sends %v, want 3", sw, d)
			}
		}
	}
}

func TestChunkyOddChunkySetRoundsDown(t *testing.T) {
	_, h := hostsWith(2, 2, 2, 2, 2) // 5 ToRs; 60% -> 3 -> rounds to 2
	rng := rand.New(rand.NewSource(13))
	m, err := Chunky(rng, h, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TotalDemand() + float64(m.Colocated); got != 10 {
		t.Fatalf("demand+colocated %v, want 10", got)
	}
}

func TestHotspot(t *testing.T) {
	_, h := hostsWith(4, 4, 4)
	rng := rand.New(rand.NewSource(17))
	m, err := Hotspot(rng, h, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalDemand()+float64(m.Colocated) != 11 { // 12 servers, hot one sends nothing
		t.Fatalf("hotspot conservation: %v", m.TotalDemand())
	}
	if _, err := Hotspot(rng, h, 2); err == nil {
		t.Fatal("fraction > 1 should error")
	}
	if _, err := Hotspot(rng, h, math.NaN()); err == nil {
		t.Fatal("NaN fraction should error")
	}
}

func TestFlowsSorted(t *testing.T) {
	_, h := hostsWith(3, 3, 3, 3, 3)
	m := Permutation(rand.New(rand.NewSource(19)), h)
	for i := 1; i < len(m.Flows); i++ {
		a, b := m.Flows[i-1], m.Flows[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Dst >= b.Dst) {
			t.Fatal("flows not sorted")
		}
	}
}
