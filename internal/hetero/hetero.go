// Package hetero implements the paper's heterogeneous topology design
// framework (§5): networks of two switch types with different port counts
// (and optionally line-speeds), a controlled distribution of servers across
// the types, and a controlled volume of cross-cluster connectivity, with
// random wiring inside those volume constraints.
package hetero

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/rrg"
)

// Config describes a two-switch-type network experiment point.
type Config struct {
	NumLarge, NumSmall     int // switch counts per type
	PortsLarge, PortsSmall int // low-speed ports per switch of each type

	// Servers is the total number of servers to attach.
	Servers int

	// ServersPerLarge/PerSmall, when non-negative, pin the per-switch
	// server counts explicitly (the paper's "16H, 2L" style curves). When
	// either is negative, servers are split according to ServerRatio.
	ServersPerLarge, ServersPerSmall int

	// ServerRatio is the Fig. 4 x-axis: the number of servers attached to
	// large switches as a ratio to the expectation under random (i.e.
	// port-proportional) placement. 1 means proportional. Ignored when
	// explicit per-switch counts are set.
	ServerRatio float64

	// CrossRatio is the Fig. 6 x-axis: the number of cross-cluster links
	// as a ratio to the expectation under vanilla random wiring. 1 means
	// unbiased.
	CrossRatio float64

	// HighLinksPerLarge adds that many extra high-line-speed ports to every
	// large switch, wired as a random regular graph among the large
	// switches only (§5.2: "high line-speed ports are assumed to connect
	// only to other high line-speed ports"). HighCap is their capacity in
	// units of the low line-speed (e.g. 10 for 10×).
	HighLinksPerLarge int
	HighCap           float64
}

// Build constructs a network per cfg. Nodes 0..NumLarge-1 are the large
// switches; the rest are small. Low-speed links have capacity 1.
func Build(rng *rand.Rand, cfg Config) (*graph.Graph, error) {
	if cfg.NumLarge <= 0 || cfg.NumSmall < 0 || cfg.PortsLarge <= 0 || cfg.PortsSmall < 0 {
		return nil, fmt.Errorf("hetero: invalid switch pool %+v", cfg)
	}
	sL, sS, err := splitServers(cfg)
	if err != nil {
		return nil, err
	}
	perLarge, err := spreadEvenly(sL, cfg.NumLarge, cfg.PortsLarge-1)
	if err != nil {
		return nil, fmt.Errorf("hetero: large switches cannot host %d servers (%v): %w", sL, err, ErrInfeasiblePoint)
	}
	perSmall, err := spreadEvenly(sS, cfg.NumSmall, cfg.PortsSmall-1)
	if err != nil {
		return nil, fmt.Errorf("hetero: small switches cannot host %d servers (%v): %w", sS, err, ErrInfeasiblePoint)
	}

	// Remaining low-speed ports form the switch-to-switch network.
	degL := make([]int, cfg.NumLarge)
	for i := range degL {
		degL[i] = cfg.PortsLarge - perLarge[i]
	}
	degS := make([]int, cfg.NumSmall)
	for i := range degS {
		degS[i] = cfg.PortsSmall - perSmall[i]
	}
	sa, sb := sum(degL), sum(degS)

	crossRatio := cfg.CrossRatio
	if crossRatio == 0 {
		crossRatio = 1
	}
	expected := rrg.ExpectedCrossLinks(sa, sb)
	want := int(math.Round(crossRatio * expected))
	cross, err := rrg.FeasibleCross(want, sa, sb)
	if err != nil {
		// Parity mismatch between the clusters: shave one network port off
		// the switch with the most, as a physical deployment would leave
		// one port dark.
		if sa >= sb && sa > 0 {
			degL[argmax(degL)]--
			sa--
		} else if sb > 0 {
			degS[argmax(degS)]--
			sb--
		}
		cross, err = rrg.FeasibleCross(want, sa, sb)
		if err != nil {
			return nil, err
		}
	}

	// AllowParallel: at very low cross-cluster ratios a dense cluster may
	// need more within-cluster links than distinct partners exist; physical
	// networks trunk parallel cables there.
	g, err := rrg.TwoCluster(rng, rrg.TwoClusterSpec{
		DegA: degL, DegB: degS, CrossLinks: cross, LinkCap: 1, AllowParallel: true,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.NumLarge; i++ {
		g.SetServers(i, perLarge[i])
	}
	for i := 0; i < cfg.NumSmall; i++ {
		g.SetServers(cfg.NumLarge+i, perSmall[i])
	}

	if cfg.HighLinksPerLarge > 0 {
		if cfg.HighCap <= 0 {
			return nil, fmt.Errorf("hetero: HighLinksPerLarge set with HighCap %v", cfg.HighCap)
		}
		hs, err := rrg.Regular(rng, cfg.NumLarge, cfg.HighLinksPerLarge)
		if err != nil {
			return nil, fmt.Errorf("hetero: high-speed mesh: %w", err)
		}
		for id := 0; id < hs.NumLinks(); id++ {
			u, v := hs.LinkEnds(id)
			g.AddLink(u, v, cfg.HighCap)
		}
	}
	return g, nil
}

// ProportionalLargeServers returns the expected number of servers at large
// switches under random (port-proportional) placement — the denominator of
// the Fig. 4 x-axis.
func ProportionalLargeServers(cfg Config) float64 {
	pl := cfg.NumLarge * cfg.PortsLarge
	ps := cfg.NumSmall * cfg.PortsSmall
	if pl+ps == 0 {
		return 0
	}
	return float64(cfg.Servers) * float64(pl) / float64(pl+ps)
}

// splitServers resolves the (large, small) server totals from cfg.
func splitServers(cfg Config) (int, int, error) {
	if cfg.ServersPerLarge >= 0 && cfg.ServersPerSmall >= 0 &&
		(cfg.ServersPerLarge > 0 || cfg.ServersPerSmall > 0) {
		sL := cfg.ServersPerLarge * cfg.NumLarge
		sS := cfg.ServersPerSmall * cfg.NumSmall
		if cfg.Servers != 0 && cfg.Servers != sL+sS {
			return 0, 0, fmt.Errorf("hetero: explicit per-switch servers (%d) conflict with Servers=%d", sL+sS, cfg.Servers)
		}
		return sL, sS, nil
	}
	ratio := cfg.ServerRatio
	if ratio == 0 {
		ratio = 1
	}
	sL := int(math.Round(ratio * ProportionalLargeServers(cfg)))
	if sL > cfg.Servers || sL < 0 {
		return 0, 0, fmt.Errorf("hetero: server ratio %v places %d of %d servers at large switches: %w",
			ratio, sL, cfg.Servers, ErrInfeasiblePoint)
	}
	return sL, cfg.Servers - sL, nil
}

// ErrInfeasiblePoint marks sweep points that no physical configuration can
// realize (e.g. a server ratio that would need more servers than exist).
// Experiment sweeps skip such points.
var ErrInfeasiblePoint = errors.New("infeasible sweep point")

// spreadEvenly divides total items across n bins as evenly as possible,
// failing if any bin would exceed maxPer (each switch must keep at least
// one network port).
func spreadEvenly(total, n, maxPer int) ([]int, error) {
	if n == 0 {
		if total != 0 {
			return nil, fmt.Errorf("%d items into 0 bins", total)
		}
		return nil, nil
	}
	if total < 0 {
		return nil, fmt.Errorf("negative total %d", total)
	}
	base, extra := total/n, total%n
	if base > maxPer || (base == maxPer && extra > 0) {
		return nil, fmt.Errorf("%d items into %d bins exceeds max %d per bin", total, n, maxPer)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out, nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func argmax(xs []int) int {
	m := 0
	for i, x := range xs {
		if x > xs[m] {
			m = i
		}
	}
	return m
}

// LargeClusterMask returns the indicator of the large-switch cluster for a
// graph built by Build.
func LargeClusterMask(cfg Config) []bool {
	mask := make([]bool, cfg.NumLarge+cfg.NumSmall)
	for i := 0; i < cfg.NumLarge; i++ {
		mask[i] = true
	}
	return mask
}
