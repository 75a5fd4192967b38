package experiments

import (
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/scenario"
)

// twoCluster is one sweep point of a two-cluster configuration, averaged
// over its runs: observed throughput, the Eq. 1 upper bound, and the
// measured cross-cluster capacity C̄. n1 and n2 are the last run's server
// counts in the large and the small cluster.
type twoCluster struct {
	obs, bound, crossCap float64
	n1, n2               int
}

// twoClusterBound reduces one point's detailed runs of configuration cfg
// to its twoCluster averages.
func twoClusterBound(cfg hetero.Config, dets []scenario.Detail) twoCluster {
	mask := hetero.LargeClusterMask(cfg)
	var p twoCluster
	for _, det := range dets {
		g := det.G
		aspl, _ := g.ASPL()
		p.n1, p.n2 = clusterServers(g, mask)
		cbar := g.CrossCapacity(mask)
		p.obs += det.Res.Throughput
		p.bound += bounds.TwoClusterBound(g.TotalCapacity(), cbar, aspl, p.n1, p.n2)
		p.crossCap += cbar
	}
	n := float64(len(dets))
	p.obs /= n
	p.bound /= n
	p.crossCap /= n
	return p
}

func clusterServers(g *graph.Graph, inS []bool) (s1, s2 int) {
	for u := 0; u < g.N(); u++ {
		if inS[u] {
			s1 += g.Servers(u)
		} else {
			s2 += g.Servers(u)
		}
	}
	return s1, s2
}

// boundCurves measures, for each configuration family cfgs[i] (case A,
// B, ... seeded seedBase+i), the Eq. 1 bound and the observed throughput
// across the cross-cluster sweep. Both are normalized by the same
// constant, the peak observation, so their gap stays interpretable.
func boundCurves(o Options, seedBase int64, cfgs ...func(x float64) hetero.Config) ([]Series, error) {
	var series []Series
	for ci, cfgAt := range cfgs {
		name := string(rune('A' + ci))
		xs, pts, err := detailedSweep(o, cfgAt, crossRatioXs(o.Quick), seedBase+int64(ci), twoClusterBound)
		if err != nil {
			return nil, err
		}
		bnd := Series{Label: "Bound " + name, X: xs}
		obs := Series{Label: "Throughput " + name, X: xs}
		for _, p := range pts {
			bnd.Y = append(bnd.Y, p.bound)
			obs.Y = append(obs.Y, p.obs)
		}
		ref := peak(obs)
		normalize(&bnd, ref)
		normalize(&obs, ref)
		series = append(series, bnd, obs)
	}
	return series, nil
}

// Fig10a: the Eq. 1 analytical bound vs. observed throughput for two
// uniform line-speed cases. The bound should track the observed curve
// closely, including the knee.
func Fig10a(o Options) (*Figure, error) {
	o = o.withDefaults()
	series, err := boundCurves(o, 10100,
		func(x float64) hetero.Config {
			return hetero.Config{
				NumLarge: 20, NumSmall: 40, PortsLarge: 30, PortsSmall: 10,
				Servers: serversForPool(20*30 + 40*10), ServersPerLarge: -1, ServersPerSmall: -1,
				ServerRatio: 1, CrossRatio: x,
			}
		},
		func(x float64) hetero.Config {
			return hetero.Config{
				NumLarge: 20, NumSmall: 30, PortsLarge: 30, PortsSmall: 20,
				Servers: 500, ServersPerLarge: -1, ServersPerSmall: -1,
				ServerRatio: 1, CrossRatio: x,
			}
		})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "10a", Title: "Analytical bound vs. observed throughput (uniform line-speed)",
		XLabel: crossRatioAxis, YLabel: "Normalized Throughput",
		Series: series,
	}, nil
}

// Fig10b: the same comparison with mixed line-speeds, where the bound can
// be looser (three cases with 3/6/9 high-speed links).
func Fig10b(o Options) (*Figure, error) {
	o = o.withDefaults()
	var cfgs []func(x float64) hetero.Config
	for _, hl := range []int{3, 6, 9} {
		cfgs = append(cfgs, func(x float64) hetero.Config {
			cfg := fig8Base()
			cfg.ServersPerLarge, cfg.ServersPerSmall = fig8ServerSplit[0], fig8ServerSplit[1]
			cfg.HighLinksPerLarge, cfg.HighCap = hl, 4
			cfg.CrossRatio = x
			return cfg
		})
	}
	series, err := boundCurves(o, 10200, cfgs...)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "10b", Title: "Analytical bound vs. observed throughput (mixed line-speeds)",
		XLabel: crossRatioAxis, YLabel: "Normalized Throughput",
		Series: series,
	}, nil
}

// Fig11: for a family of two-cluster configurations, mark the analytically
// determined cross-cluster capacity threshold C̄* = T*·2n1n2/(n1+n2) below
// which throughput must drop from its peak. Every curve should be below
// peak to the left of its mark.
func Fig11(o Options) (*Figure, error) {
	o = o.withDefaults()
	fig := &Figure{
		ID: "11", Title: "Throughput profile vs. cross-cluster connectivity, with C̄* thresholds",
		XLabel: crossRatioAxis, YLabel: "Normalized Throughput",
	}
	type cfgCase struct {
		nSmall, portsSmall, servers int
	}
	var cases []cfgCase
	smalls := []int{20, 30, 40}
	portss := []int{10, 15, 20}
	if o.Quick {
		smalls = []int{20, 40}
		portss = []int{10, 20}
	}
	for _, ns := range smalls {
		for _, ps := range portss {
			pool := 20*30 + ns*ps
			cases = append(cases,
				cfgCase{ns, ps, int(0.40 * float64(pool))},
				cfgCase{ns, ps, int(0.50 * float64(pool))},
			)
		}
	}
	xs := []float64{0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if o.Quick {
		xs = []float64{0.1, 0.2, 0.4, 0.7, 1.0}
	}
	for ci, c := range cases {
		label := fmt.Sprintf("%dS x %dp, %d servers", c.nSmall, c.portsSmall, c.servers)
		cfgAt := func(x float64) hetero.Config {
			return hetero.Config{
				NumLarge: 20, NumSmall: c.nSmall, PortsLarge: 30, PortsSmall: c.portsSmall,
				Servers: c.servers, ServersPerLarge: -1, ServersPerSmall: -1,
				ServerRatio: 1, CrossRatio: x,
			}
		}
		keptX, pts, err := detailedSweep(o, cfgAt, xs, int64(11000+ci), twoClusterBound)
		if err != nil {
			return nil, err
		}
		if len(pts) == 0 {
			continue
		}
		s := Series{Label: label, X: keptX}
		for _, p := range pts {
			s.Y = append(s.Y, p.obs)
		}
		tstar := peak(s)
		last := pts[len(pts)-1]
		n1, n2 := last.n1, last.n2
		cstar := bounds.CrossCapThreshold(tstar, n1, n2)
		// Locate the threshold on the x axis by interpolating measured C̄.
		markX := math.NaN()
		for i := 0; i < len(keptX); i++ {
			if pts[i].crossCap >= cstar {
				if i == 0 {
					markX = keptX[0]
				} else {
					// Linear interpolation between i-1 and i.
					f := (cstar - pts[i-1].crossCap) / (pts[i].crossCap - pts[i-1].crossCap)
					markX = keptX[i-1] + f*(keptX[i]-keptX[i-1])
				}
				break
			}
		}
		normalize(&s, tstar)
		s.Note = fmt.Sprintf("C̄* = %.1f (T* = %.4f, n1 = %d, n2 = %d); threshold at x ≈ %.3f", cstar, tstar, n1, n2, markX)
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
