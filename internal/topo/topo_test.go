package topo

import (
	"math/rand"
	"testing"
)

func TestVL2Shape(t *testing.T) {
	cfg := VL2Config{DA: 8, DI: 6}
	g, err := VL2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nTor, nAgg, nCore := cfg.NumToRs(), cfg.NumAggs(), cfg.NumCores()
	if nTor != 12 || nAgg != 6 || nCore != 4 {
		t.Fatalf("counts %d/%d/%d", nTor, nAgg, nCore)
	}
	if g.N() != nTor+nAgg+nCore {
		t.Fatalf("nodes %d", g.N())
	}
	// ToR degree 2; each ToR hosts 20 servers.
	for u := 0; u < nTor; u++ {
		if g.Degree(u) != 2 || g.Servers(u) != 20 {
			t.Fatalf("ToR %d: deg=%d servers=%d", u, g.Degree(u), g.Servers(u))
		}
	}
	// Aggregation switches: DA ports used (DA/2 down + DI... here full
	// bipartite to cores plus ToR uplinks).
	for i := 0; i < nAgg; i++ {
		u := nTor + i
		if g.Servers(u) != 0 {
			t.Fatalf("agg %d hosts %d servers", i, g.Servers(u))
		}
		if got := g.Degree(u); got != nCore+2*nTor/nAgg {
			t.Fatalf("agg %d degree %d", i, got)
		}
	}
	// Cores: exactly DI ports, all to aggs.
	for j := 0; j < nCore; j++ {
		u := nTor + nAgg + j
		if g.Degree(u) != cfg.DI || g.Servers(u) != 0 {
			t.Fatalf("core %d: deg=%d servers=%d", j, g.Degree(u), g.Servers(u))
		}
	}
	if !g.IsConnected() {
		t.Fatal("VL2 disconnected")
	}
	// All fabric links are 10 units.
	for id := 0; id < g.NumLinks(); id++ {
		if g.LinkCapacity(id) != 10 {
			t.Fatalf("link %d capacity %v", id, g.LinkCapacity(id))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVL2DistinctUplinks(t *testing.T) {
	g, err := VL2(VL2Config{DA: 8, DI: 6})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 12; u++ {
		nb := g.Neighbors(u)
		if len(nb) != 2 {
			t.Fatalf("ToR %d has %d distinct uplink switches", u, len(nb))
		}
	}
}

func TestVL2Invalid(t *testing.T) {
	for _, cfg := range []VL2Config{{DA: 7, DI: 6}, {DA: 0, DI: 6}, {DA: 8, DI: 1}} {
		if _, err := VL2(cfg); err == nil {
			t.Fatalf("accepted invalid %+v", cfg)
		}
	}
}

func TestRewiredVL2EquipmentAccounting(t *testing.T) {
	cfg := VL2Config{DA: 8, DI: 6}
	rng := rand.New(rand.NewSource(2))
	tors := cfg.NumToRs()
	g, err := RewiredVL2(rng, cfg, tors)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("rewired VL2 disconnected")
	}
	// ToRs keep exactly 2 uplinks and 20 servers.
	for u := 0; u < tors; u++ {
		if g.Degree(u) != 2 || g.Servers(u) != 20 {
			t.Fatalf("ToR %d: deg=%d servers=%d", u, g.Degree(u), g.Servers(u))
		}
	}
	// Fabric switches never exceed their port budget, and at most one port
	// in the whole fabric is left dark.
	nAgg, nCore := cfg.NumAggs(), cfg.NumCores()
	usedTotal, budgetTotal := 0, 0
	for i := 0; i < nAgg+nCore; i++ {
		u := tors + i
		budget := cfg.DA
		if i >= nAgg {
			budget = cfg.DI
		}
		if g.Degree(u) > budget {
			t.Fatalf("fabric switch %d uses %d of %d ports", i, g.Degree(u), budget)
		}
		usedTotal += g.Degree(u)
		budgetTotal += budget
	}
	if budgetTotal-usedTotal > 1 {
		t.Fatalf("wasted %d fabric ports", budgetTotal-usedTotal)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRewiredVL2Oversubscribed(t *testing.T) {
	cfg := VL2Config{DA: 8, DI: 6}
	rng := rand.New(rand.NewSource(3))
	g, err := RewiredVL2(rng, cfg, cfg.NumToRs()*2)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("oversubscribed rewired VL2 disconnected")
	}
}

func TestRewiredVL2TooManyToRs(t *testing.T) {
	cfg := VL2Config{DA: 8, DI: 6}
	rng := rand.New(rand.NewSource(3))
	total := cfg.NumAggs()*cfg.DA + cfg.NumCores()*cfg.DI
	if _, err := RewiredVL2(rng, cfg, total); err == nil {
		t.Fatal("should reject ToR uplinks exceeding fabric ports")
	}
}

func TestFatTree(t *testing.T) {
	g, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 { // 5k²/4 = 20
		t.Fatalf("k=4 fat-tree has %d switches, want 20", g.N())
	}
	if g.TotalServers() != 16 { // k³/4
		t.Fatalf("servers %d, want 16", g.TotalServers())
	}
	// Every switch has degree k (edge switches: k/2 up only in-network).
	// The 8 edge switches come first and are the only ones with servers.
	for u := 0; u < g.N(); u++ {
		want, servers := 4, 0
		if u < 8 {
			want, servers = 2, 2 // k/2 network ports; the other k/2 host servers
		}
		if g.Degree(u) != want || g.Servers(u) != servers {
			t.Fatalf("switch %d: degree %d servers %d, want %d and %d", u, g.Degree(u), g.Servers(u), want, servers)
		}
	}
	if !g.IsConnected() {
		t.Fatal("fat-tree disconnected")
	}
	if _, err := FatTree(5); err == nil {
		t.Fatal("odd k should fail")
	}
}

func TestHypercube(t *testing.T) {
	g, err := Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 {
		t.Fatalf("nodes %d", g.N())
	}
	if r, ok := g.IsRegular(); !ok || r != 4 {
		t.Fatalf("degree %d regular=%v", r, ok)
	}
	d, _ := g.Diameter()
	if d != 4 {
		t.Fatalf("diameter %d, want 4", d)
	}
	if _, err := Hypercube(0); err == nil {
		t.Fatal("dim 0 should fail")
	}
}

func TestTorus2D(t *testing.T) {
	g, err := Torus2D(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 {
		t.Fatalf("nodes %d", g.N())
	}
	if r, ok := g.IsRegular(); !ok || r != 4 {
		t.Fatalf("torus degree %d regular=%v", r, ok)
	}
	if _, err := Torus2D(2, 5); err == nil {
		t.Fatal("dim < 3 should fail")
	}
}

func TestJellyfish(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := Jellyfish(rng, 20, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalServers() != 60 { // (8-5)·20
		t.Fatalf("servers %d", g.TotalServers())
	}
	if r, ok := g.IsRegular(); !ok || r != 5 {
		t.Fatalf("degree %d", r)
	}
	if _, err := Jellyfish(rng, 20, 4, 5); err == nil {
		t.Fatal("r > k should fail")
	}
}

func TestApportion(t *testing.T) {
	weights := []int{30, 30, 16, 16}
	got := apportion(weights, 23)
	total := 0
	for i, v := range got {
		if v > weights[i] {
			t.Fatalf("bin %d over weight", i)
		}
		total += v
	}
	if total != 23 {
		t.Fatalf("apportioned %d, want 23", total)
	}
	// Proportionality: the 30-weight bins get more than the 16s.
	if got[0] < got[2] {
		t.Fatalf("apportion not proportional: %v", got)
	}
}

func TestApportionSaturation(t *testing.T) {
	got := apportion([]int{2, 2, 10}, 12)
	if got[0]+got[1]+got[2] != 12 {
		t.Fatalf("apportion %v", got)
	}
	if got[0] > 2 || got[1] > 2 {
		t.Fatalf("bins exceeded caps: %v", got)
	}
}
