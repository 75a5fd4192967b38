package experiments

import "repro/internal/hetero"

// fig8Base is the §5.2 equipment pool: 20 large switches with 40 low
// line-speed ports each, 20 small switches with 15 low line-speed ports
// each; large switches additionally carry high line-speed links among
// themselves.
func fig8Base() hetero.Config {
	return hetero.Config{
		NumLarge: 20, NumSmall: 20,
		PortsLarge: 40, PortsSmall: 15,
	}
}

// Fig8a: server splits under mixed line-speeds. 3 extra 10× links per
// large switch; five server distributions sharing one total; cross-cluster
// sweep. The paper's finding: multiple configurations are near-optimal.
func Fig8a(o Options) (*Figure, error) {
	o = o.withDefaults()
	base := fig8Base()
	base.HighLinksPerLarge, base.HighCap = 3, 10
	return splitFigure(o, &Figure{
		ID: "8a", Title: "Mixed line-speeds: server splits × interconnect",
		XLabel: crossRatioAxis, YLabel: "Normalized Throughput",
	}, base, [][2]int{{36, 7}, {35, 8}, {34, 9}, {33, 10}, {32, 11}})
}

// fig8ServerSplit is the fixed proportional-ish split used by Fig. 8b/8c.
var fig8ServerSplit = [2]int{34, 9}

// fig8bc sweeps cross-cluster connectivity for several (count, speed)
// settings of the high line-speed links. All curves are normalized by the
// weakest setting's value at x = 1, so the benefit of extra high-speed
// capacity is visible (y can exceed 1), as in the paper.
func fig8bc(o Options, id, title string, settings []struct {
	label string
	count int
	speed float64
}) (*Figure, error) {
	var f family
	for _, set := range settings {
		base := fig8Base()
		base.ServersPerLarge, base.ServersPerSmall = fig8ServerSplit[0], fig8ServerSplit[1]
		base.HighLinksPerLarge, base.HighCap = set.count, set.speed
		f.crossRatioCurve(o, set.label, base)
	}
	series, err := f.measure(o.sweepEngine())
	if err != nil {
		return nil, err
	}
	ref, _ := valueAt(series[0], 1)
	if ref == 0 { // the weakest setting's x=1 point may be infeasible
		ref = peak(series[0])
	}
	for i := range series {
		normalize(&series[i], ref)
	}
	return &Figure{
		ID: id, Title: title,
		XLabel: crossRatioAxis, YLabel: "Normalized Throughput",
		Series: series,
	}, nil
}

// Fig8b: varying the high line-speed (2×, 4×, 8×) with 6 high-speed links
// per large switch.
func Fig8b(o Options) (*Figure, error) {
	o = o.withDefaults()
	return fig8bc(o, "8b", "Mixed line-speeds: varying high line-speed (6 H-links)",
		[]struct {
			label string
			count int
			speed float64
		}{
			{"High-speed = 2", 6, 2},
			{"High-speed = 4", 6, 4},
			{"High-speed = 8", 6, 8},
		})
}

// Fig8c: varying the number of high-speed links (3/6/9) at speed 4×.
func Fig8c(o Options) (*Figure, error) {
	o = o.withDefaults()
	return fig8bc(o, "8c", "Mixed line-speeds: varying high-speed link count (speed 4)",
		[]struct {
			label string
			count int
			speed float64
		}{
			{"3 H-links", 3, 4},
			{"6 H-links", 6, 4},
			{"9 H-links", 9, 4},
		})
}
