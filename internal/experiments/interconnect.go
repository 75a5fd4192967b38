package experiments

import (
	"fmt"

	"repro/internal/hetero"
	"repro/internal/scenario"
)

// crossRatioAxis is the x-axis label of every cross-cluster sweep.
const crossRatioAxis = "Cross-cluster Links (Ratio to Expected Under Random Connection)"

// crossRatioXs is the Fig. 6/7 x grid (cross-cluster links as a ratio to
// the vanilla-random expectation).
func crossRatioXs(quick bool) []float64 {
	if quick {
		return []float64{0.2, 0.5, 1.0, 1.5, 2.0}
	}
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
}

// crossRatioCurve adds a Fig. 6–8 curve: base with its server
// distribution held fixed at each crossRatioXs cross-cluster ratio.
func (f *family) crossRatioCurve(o Options, label string, base hetero.Config) {
	c := f.newCurve(label)
	for _, x := range crossRatioXs(o.Quick) {
		cfg := base
		cfg.CrossRatio = x
		f.add(c, x, o.evalPoint(&scenario.Hetero{Cfg: cfg}, scenario.Permutation{}, labelSeed(label)+int64(x*1000)))
	}
}

// proportionalConfig returns base with the port-proportional server split.
func proportionalConfig(base hetero.Config) hetero.Config {
	base.ServersPerLarge, base.ServersPerSmall = -1, -1
	base.ServerRatio = 1
	return base
}

// Fig6a: cross-cluster connectivity sweep for three port ratios, servers
// distributed proportionally. The paper's headline: throughput is stable
// at its peak across a wide range of cross-cluster connectivity, dropping
// only when the cut becomes the bottleneck.
func Fig6a(o Options) (*Figure, error) {
	o = o.withDefaults()
	var f family
	for _, c := range []struct {
		label      string
		portsSmall int
	}{
		{"3:1 Port-ratio", 10},
		{"2:1 Port-ratio", 15},
		{"3:2 Port-ratio", 20},
	} {
		f.crossRatioCurve(o, c.label, proportionalConfig(hetero.Config{
			NumLarge: 20, NumSmall: 40,
			PortsLarge: 30, PortsSmall: c.portsSmall,
			Servers: serversForPool(20*30 + 40*c.portsSmall),
		}))
	}
	return peakFigure(o, &f, &Figure{
		ID: "6a", Title: "Cross-cluster connectivity vs. throughput (port ratios)",
		XLabel: crossRatioAxis, YLabel: "Normalized Throughput",
	})
}

// Fig6b: cross-cluster sweep with varying small-switch counts.
func Fig6b(o Options) (*Figure, error) {
	o = o.withDefaults()
	var f family
	for _, nSmall := range []int{20, 30, 40} {
		f.crossRatioCurve(o, fmt.Sprintf("%d Smaller Switches", nSmall), proportionalConfig(hetero.Config{
			NumLarge: 20, NumSmall: nSmall,
			PortsLarge: 30, PortsSmall: 20,
			Servers: serversForPool(20*30 + nSmall*20),
		}))
	}
	return peakFigure(o, &f, &Figure{
		ID: "6b", Title: "Cross-cluster connectivity vs. throughput (switch counts)",
		XLabel: crossRatioAxis, YLabel: "Normalized Throughput",
	})
}

// Fig6c: cross-cluster sweep with 300/500/700 servers (oversubscription).
func Fig6c(o Options) (*Figure, error) {
	o = o.withDefaults()
	var f family
	for _, servers := range []int{300, 500, 700} {
		f.crossRatioCurve(o, fmt.Sprintf("%d Servers", servers), proportionalConfig(hetero.Config{
			NumLarge: 20, NumSmall: 30,
			PortsLarge: 30, PortsSmall: 20,
			Servers: servers,
		}))
	}
	return peakFigure(o, &f, &Figure{
		ID: "6c", Title: "Cross-cluster connectivity vs. throughput (oversubscription)",
		XLabel: crossRatioAxis, YLabel: "Normalized Throughput",
	})
}

// fig7 runs the joint (server split × cross-cluster) sweep for explicit
// per-switch server counts.
func fig7(o Options, id string, portsSmall int, splits [][2]int) (*Figure, error) {
	return splitFigure(o, &Figure{
		ID: id, Title: "Joint server-distribution and interconnect sweep",
		XLabel: crossRatioAxis, YLabel: "Normalized Throughput",
	}, hetero.Config{NumLarge: 20, NumSmall: 40, PortsLarge: 30, PortsSmall: portsSmall}, splits)
}

// splitFigure sweeps cross-cluster connectivity for each per-switch
// server split of base (Fig. 7, 8a). The whole family is normalized by its
// global peak so the figure shows which split wins, as in the paper.
func splitFigure(o Options, fig *Figure, base hetero.Config, splits [][2]int) (*Figure, error) {
	var f family
	for _, split := range splits {
		cfg := base
		cfg.ServersPerLarge, cfg.ServersPerSmall = split[0], split[1]
		f.crossRatioCurve(o, fmt.Sprintf("%dH, %dL", split[0], split[1]), cfg)
	}
	series, err := f.measure(o.sweepEngine())
	if err != nil {
		return nil, err
	}
	p := peak(series...)
	for i := range series {
		normalize(&series[i], p)
	}
	fig.Series = series
	return fig, nil
}

// Fig7a: joint sweep, 20 large (30-port) and 40 small (10-port) switches;
// five server splits totalling 400 servers. Proportional placement
// ("12H, 4L") with a vanilla random interconnect (x=1) should be among
// the optimal configurations.
func Fig7a(o Options) (*Figure, error) {
	o = o.withDefaults()
	return fig7(o, "7a", 10, [][2]int{{16, 2}, {14, 3}, {12, 4}, {10, 5}, {8, 6}})
}

// Fig7b: joint sweep, 20 large (30-port) and 40 small (20-port) switches;
// five splits totalling 560 servers ("14H, 7L" is proportional).
func Fig7b(o Options) (*Figure, error) {
	o = o.withDefaults()
	return fig7(o, "7b", 20, [][2]int{{22, 3}, {18, 5}, {14, 7}, {10, 9}, {6, 11}})
}
