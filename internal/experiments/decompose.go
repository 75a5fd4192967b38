package experiments

import (
	"repro/internal/analysis"
	"repro/internal/hetero"
	"repro/internal/scenario"
)

// meanDecomposition averages the §6.1 decomposition over one point's
// detailed runs.
func meanDecomposition(_ hetero.Config, dets []scenario.Detail) analysis.Decomposition {
	var agg analysis.Decomposition
	for _, det := range dets {
		d := analysis.Decompose(det.G, det.Res)
		agg.Throughput += d.Throughput
		agg.Capacity += d.Capacity
		agg.Utilization += d.Utilization
		agg.SPL += d.SPL
		agg.Stretch += d.Stretch
	}
	n := float64(len(dets))
	agg.Throughput /= n
	agg.Capacity /= n
	agg.Utilization /= n
	agg.SPL /= n
	agg.Stretch /= n
	return agg
}

// decompFigure measures the decomposition across one sweep and packages
// it, normalized, as a 4-series figure.
func decompFigure(o Options, id, title, xlabel string, cfgAt func(x float64) hetero.Config, xs []float64, seedMix int64) (*Figure, error) {
	kept, ds, err := detailedSweep(o, cfgAt, xs, seedMix, meanDecomposition)
	if err != nil {
		return nil, err
	}
	ns := analysis.Normalize(kept, ds)
	return &Figure{
		ID: id, Title: title, XLabel: xlabel, YLabel: "Normalized Metric",
		Series: []Series{
			{Label: "Throughput", X: ns.X, Y: ns.Throughput},
			{Label: "Inverse SPL", X: ns.X, Y: ns.InvSPL},
			{Label: "Inverse Stretch", X: ns.X, Y: ns.InvStretch},
			{Label: "Utilization", X: ns.X, Y: ns.Util},
		},
	}, nil
}

// Fig9a: decomposition of the Fig. 4c "480 Servers" server-placement
// sweep. The paper's finding: utilization tracks throughput best; path
// length contributes at the right edge.
func Fig9a(o Options) (*Figure, error) {
	o = o.withDefaults()
	return decompFigure(o, "9a", "Throughput decomposition: server distribution (480 servers)", serverRatioAxis,
		func(x float64) hetero.Config {
			return hetero.Config{
				NumLarge: 20, NumSmall: 30,
				PortsLarge: 30, PortsSmall: 20,
				Servers:         480,
				ServersPerLarge: -1, ServersPerSmall: -1,
				ServerRatio: x,
			}
		}, serverRatioXs(o.Quick), 9100)
}

// Fig9b: decomposition of the Fig. 6c "500 Servers" cross-cluster sweep.
func Fig9b(o Options) (*Figure, error) {
	o = o.withDefaults()
	return decompFigure(o, "9b", "Throughput decomposition: cross-cluster sweep (500 servers)", crossRatioAxis,
		func(x float64) hetero.Config {
			return hetero.Config{
				NumLarge: 20, NumSmall: 30,
				PortsLarge: 30, PortsSmall: 20,
				Servers:         500,
				ServersPerLarge: -1, ServersPerSmall: -1,
				ServerRatio: 1,
				CrossRatio:  x,
			}
		}, crossRatioXs(o.Quick), 9200)
}

// Fig9c: decomposition of the Fig. 8c "3 H-links" mixed line-speed sweep.
func Fig9c(o Options) (*Figure, error) {
	o = o.withDefaults()
	return decompFigure(o, "9c", "Throughput decomposition: mixed line-speeds (3 H-links)", crossRatioAxis,
		func(x float64) hetero.Config {
			cfg := fig8Base()
			cfg.ServersPerLarge, cfg.ServersPerSmall = fig8ServerSplit[0], fig8ServerSplit[1]
			cfg.HighLinksPerLarge, cfg.HighCap = 3, 4
			cfg.CrossRatio = x
			return cfg
		}, crossRatioXs(o.Quick), 9300)
}
