package hetero

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rrg"
)

func baseCfg() Config {
	return Config{
		NumLarge: 10, NumSmall: 20,
		PortsLarge: 24, PortsSmall: 12,
		Servers:         200,
		ServersPerLarge: -1, ServersPerSmall: -1,
	}
}

func TestBuildProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := baseCfg()
	g, err := Build(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 30 {
		t.Fatalf("nodes %d", g.N())
	}
	if g.TotalServers() != 200 {
		t.Fatalf("servers %d", g.TotalServers())
	}
	// Proportional split: large port share 240/480 = 0.5 -> 100 servers.
	var largeServers int
	for u := 0; u < cfg.NumLarge; u++ {
		largeServers += g.Servers(u)
	}
	if largeServers != 100 {
		t.Fatalf("servers at large %d, want 100", largeServers)
	}
	// Port budgets respected: degree + servers = ports.
	for u := 0; u < cfg.NumLarge; u++ {
		if g.Degree(u)+g.Servers(u) != cfg.PortsLarge {
			t.Fatalf("large %d: deg %d + servers %d != %d", u, g.Degree(u), g.Servers(u), cfg.PortsLarge)
		}
	}
	for u := cfg.NumLarge; u < g.N(); u++ {
		used := g.Degree(u) + g.Servers(u)
		if used > cfg.PortsSmall || used < cfg.PortsSmall-1 {
			t.Fatalf("small %d uses %d of %d ports", u, used, cfg.PortsSmall)
		}
	}
	if !g.IsConnected() {
		t.Fatal("disconnected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildExplicitSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := baseCfg()
	cfg.Servers = 0
	cfg.ServersPerLarge, cfg.ServersPerSmall = 12, 4
	g, err := Build(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < cfg.NumLarge; u++ {
		if g.Servers(u) != 12 {
			t.Fatalf("large %d servers %d", u, g.Servers(u))
		}
	}
	for u := cfg.NumLarge; u < g.N(); u++ {
		if g.Servers(u) != 4 {
			t.Fatalf("small %d servers %d", u, g.Servers(u))
		}
	}
}

func TestBuildExplicitSplitConflict(t *testing.T) {
	cfg := baseCfg()
	cfg.ServersPerLarge, cfg.ServersPerSmall = 12, 4
	cfg.Servers = 77 // != 12·10 + 4·20 = 200
	if _, err := Build(rand.New(rand.NewSource(1)), cfg); err == nil {
		t.Fatal("conflicting totals accepted")
	}
}

func TestBuildCrossRatio(t *testing.T) {
	for _, x := range []float64{0.3, 1.0, 1.8} {
		rng := rand.New(rand.NewSource(3))
		cfg := baseCfg()
		cfg.CrossRatio = x
		g, err := Build(rng, cfg)
		if err != nil {
			t.Fatalf("x=%v: %v", x, err)
		}
		mask := LargeClusterMask(cfg)
		cross := g.CrossCapacity(mask) / 2 // links
		// Compute the expectation from the realized degrees.
		var sa, sb int
		for u := 0; u < g.N(); u++ {
			if mask[u] {
				sa += g.Degree(u)
			} else {
				sb += g.Degree(u)
			}
		}
		// The realized cross count should scale roughly with x.
		if x < 0.5 && cross > float64(sa)/2 {
			t.Fatalf("x=%v produced %v cross links", x, cross)
		}
		if !g.IsConnected() {
			t.Fatalf("x=%v disconnected", x)
		}
	}
}

func TestBuildCrossRatioOrdering(t *testing.T) {
	crossAt := func(x float64) float64 {
		rng := rand.New(rand.NewSource(5))
		cfg := baseCfg()
		cfg.CrossRatio = x
		g, err := Build(rng, cfg)
		if err != nil {
			t.Fatalf("x=%v: %v", x, err)
		}
		return g.CrossCapacity(LargeClusterMask(cfg))
	}
	lo, mid, hi := crossAt(0.3), crossAt(1.0), crossAt(1.7)
	if !(lo < mid && mid < hi) {
		t.Fatalf("cross capacity not monotone in ratio: %v %v %v", lo, mid, hi)
	}
}

func TestServerRatioInfeasible(t *testing.T) {
	cfg := baseCfg()
	cfg.ServerRatio = 2.5 // 2.5·100 = 250 > 200 total servers
	_, err := Build(rand.New(rand.NewSource(1)), cfg)
	if !errors.Is(err, ErrInfeasiblePoint) {
		t.Fatalf("expected infeasible point, got %v", err)
	}
}

func TestServerOverflowInfeasible(t *testing.T) {
	cfg := baseCfg()
	cfg.Servers = 1000 // exceeds even total port count
	_, err := Build(rand.New(rand.NewSource(1)), cfg)
	if err == nil {
		t.Fatal("overfull configuration accepted")
	}
}

func TestHighSpeedLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := baseCfg()
	cfg.HighLinksPerLarge, cfg.HighCap = 3, 10
	g, err := Build(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// High-speed links exist only among large switches and have cap 10.
	var high int
	for id := 0; id < g.NumLinks(); id++ {
		if g.LinkCapacity(id) == 10 {
			u, v := g.LinkEnds(id)
			if u >= cfg.NumLarge || v >= cfg.NumLarge {
				t.Fatalf("high-speed link %d touches small switch", id)
			}
			high++
		}
	}
	if high != cfg.NumLarge*cfg.HighLinksPerLarge/2 {
		t.Fatalf("high-speed links %d, want %d", high, cfg.NumLarge*cfg.HighLinksPerLarge/2)
	}
	// Total capacity grows accordingly.
	plain, err := Build(rand.New(rand.NewSource(7)), baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalCapacity() <= plain.TotalCapacity() {
		t.Fatal("high-speed links did not add capacity")
	}
}

func TestHighSpeedMissingCap(t *testing.T) {
	cfg := baseCfg()
	cfg.HighLinksPerLarge = 3
	if _, err := Build(rand.New(rand.NewSource(1)), cfg); err == nil {
		t.Fatal("HighCap unset should error")
	}
}

func TestProportionalLargeServers(t *testing.T) {
	cfg := baseCfg()
	if got := ProportionalLargeServers(cfg); got != 100 {
		t.Fatalf("got %v, want 100", got)
	}
}

func TestSpreadEvenly(t *testing.T) {
	out, err := spreadEvenly(10, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range out {
		total += v
	}
	if total != 10 {
		t.Fatalf("sum %d", total)
	}
	if out[0]-out[3] > 1 {
		t.Fatalf("uneven spread %v", out)
	}
	if _, err := spreadEvenly(100, 4, 5); err == nil {
		t.Fatal("overfull spread accepted")
	}
	if _, err := spreadEvenly(3, 0, 5); err == nil {
		t.Fatal("zero bins with items accepted")
	}
}

func TestPowerServerAllocation(t *testing.T) {
	ports := []int{20, 10, 10, 5, 5}
	alloc, err := PowerServerAllocation(ports, 20, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, a := range alloc {
		if a > ports[i]-1 {
			t.Fatalf("switch %d over capacity: %d", i, a)
		}
		total += a
	}
	if total != 20 {
		t.Fatalf("allocated %d, want 20", total)
	}
	// beta=1 is proportional: switch 0 gets ~2x switch 1.
	if alloc[0] < alloc[1] {
		t.Fatalf("allocation not proportional: %v", alloc)
	}
	// beta=0 is uniform.
	alloc0, err := PowerServerAllocation(ports, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if alloc0[0]-alloc0[4] > 1 {
		t.Fatalf("beta=0 not uniform: %v", alloc0)
	}
}

func TestPowerServerAllocationErrors(t *testing.T) {
	if _, err := PowerServerAllocation([]int{5, 5}, 100, 1); err == nil {
		t.Fatal("overfull accepted")
	}
	if _, err := PowerServerAllocation([]int{1, 5}, 2, 1); err == nil {
		t.Fatal("one-port switch accepted")
	}
}

func TestBuildPowerLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ports, err := rrg.PowerLawDegrees(rng, 30, 8, 2.2, 3, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range []float64{0, 1, 1.4} {
		g, err := BuildPowerLaw(rng, ports, 80, beta)
		if err != nil {
			t.Fatalf("beta=%v: %v", beta, err)
		}
		if g.TotalServers() != 80 {
			t.Fatalf("beta=%v servers %d", beta, g.TotalServers())
		}
		if !g.IsConnected() {
			t.Fatalf("beta=%v disconnected", beta)
		}
	}
}

// Property: Build conserves servers and never exceeds port budgets across
// random feasible configurations.
func TestQuickBuildInvariants(t *testing.T) {
	f := func(seed int64, ratioRaw, crossRaw uint8) bool {
		cfg := baseCfg()
		cfg.ServerRatio = 0.5 + float64(ratioRaw%100)/100 // [0.5, 1.5)
		cfg.CrossRatio = 0.2 + float64(crossRaw%160)/100  // [0.2, 1.8)
		g, err := Build(rand.New(rand.NewSource(seed)), cfg)
		if errors.Is(err, ErrInfeasiblePoint) || errors.Is(err, rrg.ErrInfeasible) {
			return true
		}
		if err != nil {
			return false
		}
		if g.TotalServers() != cfg.Servers {
			return false
		}
		for u := 0; u < cfg.NumLarge; u++ {
			if g.Degree(u)+g.Servers(u) > cfg.PortsLarge {
				return false
			}
		}
		for u := cfg.NumLarge; u < g.N(); u++ {
			if g.Degree(u)+g.Servers(u) > cfg.PortsSmall {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
