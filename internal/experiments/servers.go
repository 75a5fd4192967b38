package experiments

import (
	"fmt"

	"repro/internal/hetero"
	"repro/internal/scenario"
)

// serverRatioAxis is the Fig. 4 x-axis label.
const serverRatioAxis = "Number of Servers at Large Switches (Ratio to Expected Under Random Distribution)"

// serverRatioXs is the Fig. 4 x grid (ratio of servers-at-large-switches
// to the port-proportional expectation).
func serverRatioXs(quick bool) []float64 {
	if quick {
		return []float64{0.4, 0.7, 1.0, 1.3, 1.6}
	}
	return []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4}
}

// serverRatioCurve adds a Fig. 4 curve: base with its servers split at
// each serverRatioXs ratio to the port-proportional expectation.
func (f *family) serverRatioCurve(o Options, label string, base hetero.Config) {
	c := f.newCurve(label)
	for _, x := range serverRatioXs(o.Quick) {
		cfg := base
		cfg.ServersPerLarge, cfg.ServersPerSmall = -1, -1
		cfg.ServerRatio = x
		f.add(c, x, o.evalPoint(&scenario.Hetero{Cfg: cfg}, scenario.Permutation{}, labelSeed(label)))
	}
}

func labelSeed(label string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range label {
		h = (h ^ int64(c)) * 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h % 1_000_000
}

// Fig4a: distributing servers across switch types — port ratios 3:1, 2:1,
// 3:2 with 20 large and 40 small switches. Peak expected at x = 1
// (port-proportional placement).
func Fig4a(o Options) (*Figure, error) {
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
		f.serverRatioCurve(o, c.label, hetero.Config{
			NumLarge: 20, NumSmall: 40,
			PortsLarge: 30, PortsSmall: c.portsSmall,
			Servers: serversForPool(20*30 + 40*c.portsSmall),
		})
	}
	return peakFigure(o, &f, &Figure{
		ID: "4a", Title: "Server distribution vs. throughput (port ratios)",
		XLabel: serverRatioAxis, YLabel: "Normalized Throughput",
	})
}

// serversForPool picks a server count leaving roughly 55% of ports for the
// network, a mid-oversubscription operating point.
func serversForPool(totalPorts int) int {
	return int(0.45 * float64(totalPorts))
}

// Fig4b: server distribution with varying counts of small switches.
func Fig4b(o Options) (*Figure, error) {
	o = o.withDefaults()
	var f family
	for _, nSmall := range []int{20, 30, 40} {
		f.serverRatioCurve(o, fmt.Sprintf("%d Small Switches", nSmall), hetero.Config{
			NumLarge: 20, NumSmall: nSmall,
			PortsLarge: 30, PortsSmall: 20,
			Servers: serversForPool(20*30 + nSmall*20),
		})
	}
	return peakFigure(o, &f, &Figure{
		ID: "4b", Title: "Server distribution vs. throughput (switch counts)",
		XLabel: serverRatioAxis, YLabel: "Normalized Throughput",
	})
}

// Fig4c: server distribution with varying oversubscription (480/510/540
// servers on 20 large 30-port and 30 small 20-port switches).
func Fig4c(o Options) (*Figure, error) {
	o = o.withDefaults()
	var f family
	for _, servers := range []int{480, 510, 540} {
		f.serverRatioCurve(o, fmt.Sprintf("%d Servers", servers), hetero.Config{
			NumLarge: 20, NumSmall: 30,
			PortsLarge: 30, PortsSmall: 20,
			Servers: servers,
		})
	}
	return peakFigure(o, &f, &Figure{
		ID: "4c", Title: "Server distribution vs. throughput (oversubscription)",
		XLabel: serverRatioAxis, YLabel: "Normalized Throughput",
	})
}

// Fig5: power-law port counts; servers attached in proportion to
// degree^beta. The paper finds beta = 1 (proportional) among the optimal
// settings, with a broad optimum through beta ≈ 1.4.
func Fig5(o Options) (*Figure, error) {
	o = o.withDefaults()
	betas := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6}
	if o.Quick {
		betas = []float64{0, 0.5, 1.0, 1.4}
	}
	const nSwitches = 40
	var f family
	for _, avg := range []float64{6, 8, 10} {
		c := f.newCurve(fmt.Sprintf("Avg port-count %d", int(avg)))
		// Cap the tail at min(2.5·avg, n/2): a port count near n would
		// demand near-complete connectivity and leave no simple graph
		// after servers are attached. The port sequence itself is drawn
		// inside the plrrg topology from pseed — one sequence per average,
		// shared across betas and runs, so the curve isolates beta.
		kmax := int(2.5 * avg)
		if kmax > nSwitches/2 {
			kmax = nSwitches / 2
		}
		for _, beta := range betas {
			f.add(c, beta, o.evalPoint(&scenario.PowerLawRRG{
				N: nSwitches, Avg: avg, Gamma: 2.2, Kmin: 3, Kmax: kmax,
				SFrac: 0.4, Beta: beta, PortSeed: o.Seed*31 + int64(avg),
			}, scenario.Permutation{}, int64(avg*100)+int64(beta*10)))
		}
	}
	series, err := f.measure(o.engine())
	if err != nil {
		return nil, err
	}
	// The paper normalizes each curve to its β=1 value; x=1 is then
	// directly comparable across curves.
	for i := range series {
		ref, _ := valueAt(series[i], 1)
		if ref == 0 {
			ref = peak(series[i])
		}
		normalize(&series[i], ref)
	}
	return &Figure{
		ID: "5", Title: "Power-law port counts: servers ∝ degree^β",
		XLabel: "β", YLabel: "Normalized Throughput",
		Series: series,
	}, nil
}
