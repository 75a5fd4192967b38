package experiments

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// fullThroughputThreshold is the λ above which a configuration counts as
// "full throughput". The exact criterion is λ ≥ 1; because the flow solver
// only underestimates λ (by at most ε), we subtract the solver slack so the
// criterion is not biased against either topology. The same threshold is
// applied to VL2 and to the rewired topology.
func fullThroughputThreshold(epsilon float64) float64 {
	return 1 - epsilon - 0.02
}

// maxToRs runs the §7 binary search on the scenario engine: the largest
// ToR count supported at full throughput by point(tors) under traffic tr.
// "Full throughput" means every server-level flow gets its full fair
// share: 1 unit for permutation/chunky traffic, 1/(S-1) for all-to-all
// among S servers. With the process-wide solve cache, probes shared
// across searches (e.g. the same sizing search under several chunky
// fractions) solve once.
func maxToRs(o Options, tr scenario.Traffic, lo, hi, serversPerToR int, point func(tors int) scenario.Point) (int, error) {
	base := fullThroughputThreshold(o.Epsilon)
	_, a2a := tr.(scenario.AllToAll)
	threshold := func(size int) float64 {
		if s := size * serversPerToR; a2a && s > 1 {
			return base / float64(s-1)
		}
		return base
	}
	return o.engine().MaxAtFull(lo, hi, threshold, point)
}

// vl2Point and rewiredPoint are the scenario points of the §7 capacity
// search: the standard VL2 fabric (round-robin ToR uplinks) and the
// paper's rewiring of the same equipment, sized to an arbitrary ToR count.
func (o Options) vl2Point(tr scenario.Traffic, da, di, tors int, seedMix int64) scenario.Point {
	return o.evalPoint(&scenario.VL2{DA: da, DI: di, ToRs: tors}, tr, seedMix)
}

func (o Options) rewiredPoint(tr scenario.Traffic, da, di, tors int, seedMix int64) scenario.Point {
	return o.evalPoint(&scenario.RewiredVL2{DA: da, DI: di, ToRs: tors}, tr, seedMix)
}

// fig12aGrid returns the (DA, DI) grid for Fig. 12a/12c.
func fig12aGrid(quick bool) (das []int, dis []int) {
	if quick {
		return []int{6, 10, 14}, []int{16}
	}
	return []int{6, 8, 10, 12, 14, 16, 18, 20}, []int{16, 20, 24, 28}
}

// Fig12a: servers supported at full throughput by the rewired topology,
// as a ratio over VL2, across DA and DI. Both sides are measured with the
// same solver and threshold; VL2's measured capacity is the denominator.
func Fig12a(o Options) (*Figure, error) {
	o = o.withDefaults()
	das, dis := fig12aGrid(o.Quick)
	var f family
	for _, di := range dis {
		c := f.newCurve(fmt.Sprintf("%d Agg Switches (DI=%d)", di, di))
		for _, da := range das {
			f.place(c, float64(da))
		}
	}
	// Each (DA, DI) point is a pair of binary searches — inherently
	// sequential inside, so parallelize across the flattened grid.
	ratios, err := runner.Map(len(f.x), func(i int) (scenario.Stat, error) {
		da, di := int(f.x[i]), dis[f.curve[i]]
		ratio, err := rewiredOverVL2(o, scenario.Permutation{}, da, di, int64(12100+da*100+di))
		if err != nil {
			return scenario.Stat{}, fmt.Errorf("fig12a DA=%d DI=%d: %w", da, di, err)
		}
		return scenario.Stat{Mean: ratio, OK: true}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "12a", Title: "Rewired VL2: servers at full throughput (ratio over VL2)",
		XLabel: "Aggregation Switch Degree (DA)", YLabel: "Servers at Full Throughput (Ratio Over VL2)",
		Series: f.fold(ratios, false),
	}, nil
}

// rewiredOverVL2 measures max ToRs at full throughput for both topologies
// and returns rewired/VL2.
func rewiredOverVL2(o Options, tr scenario.Traffic, da, di int, seedMix int64) (float64, error) {
	cfg := topo.VL2Config{DA: da, DI: di}
	designed := cfg.NumToRs()
	hi := designed*2 + 4
	vl2Max, err := maxToRs(o, tr, 1, hi, 20, func(tors int) scenario.Point {
		return o.vl2Point(tr, da, di, tors, seedMix)
	})
	if err != nil {
		return 0, err
	}
	rewMax, err := maxToRs(o, tr, 1, hi, 20, func(tors int) scenario.Point {
		return o.rewiredPoint(tr, da, di, tors, seedMix+7)
	})
	if err != nil {
		return 0, err
	}
	if vl2Max < 1 {
		return 0, fmt.Errorf("VL2 DA=%d DI=%d supports no ToRs at threshold", da, di)
	}
	return float64(rewMax) / float64(vl2Max), nil
}

// Fig12b: throughput of the rewired topology under x% Chunky traffic, at
// the sizes found for permutation traffic (DI = 28 in the paper; the quick
// grid uses DI = 16).
func Fig12b(o Options) (*Figure, error) {
	o = o.withDefaults()
	di := 28
	das := []int{6, 8, 10, 12, 14, 16, 18}
	if o.Quick {
		di = 16
		das = []int{6, 10, 14}
	}
	fractions := []float64{0.2, 0.6, 1.0}
	var f family
	for _, frac := range fractions {
		c := f.newCurve(fmt.Sprintf("%d%% Chunky", int(frac*100)))
		for _, da := range das {
			f.place(c, float64(da))
		}
	}
	stats, err := runner.Map(len(f.x), func(i int) (scenario.Stat, error) {
		da, frac := int(f.x[i]), fractions[f.curve[i]]
		cfg := topo.VL2Config{DA: da, DI: di}
		// Size the topology at its permutation-full-throughput point. The
		// search's seed mix depends only on DA, so the three chunky
		// fractions share it — with the solve cache, it runs once.
		tors, err := maxToRs(o, scenario.Permutation{}, 1, cfg.NumToRs()*2+4, 20, func(t int) scenario.Point {
			return o.rewiredPoint(scenario.Permutation{}, da, di, t, int64(12200+da))
		})
		if err != nil || tors < 2 {
			return scenario.Stat{}, err // a zero Stat is not OK: no point at this DA
		}
		st, err := o.engine().MeasureOne(
			o.rewiredPoint(scenario.Chunky{Frac: frac}, da, di, tors, int64(12250+da)))
		if st.Mean > 1 {
			st.Mean = 1 // full throughput; demands are 1 unit per server
		}
		return st, err
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "12b", Title: fmt.Sprintf("Rewired VL2 under chunky traffic (DI=%d)", di),
		XLabel: "Aggregation Switch Degree (DA)", YLabel: "Normalized Throughput",
		Series: f.fold(stats, true),
	}, nil
}

// Fig12c: the Fig. 12a search repeated under all-to-all and 100% chunky
// traffic. Gains shrink for chunky but remain positive; all-to-all is
// easier to route than both.
func Fig12c(o Options) (*Figure, error) {
	o = o.withDefaults()
	di := 20
	das := []int{6, 8, 10, 12, 14, 16, 18, 20}
	if o.Quick {
		di = 16
		das = []int{6, 10}
	}
	fig := &Figure{
		ID: "12c", Title: fmt.Sprintf("Rewired VL2 under other workloads (DI=%d)", di),
		XLabel: "Aggregation Switch Degree (DA)", YLabel: "Servers at Full Throughput (Ratio Over VL2)",
	}
	cases := []struct {
		label string
		tr    scenario.Traffic
	}{
		{"All-to-All Traffic", scenario.AllToAll{}},
		{"Permutation Traffic", scenario.Permutation{}},
		{"100% Chunky Traffic", scenario.Chunky{Frac: 1.0}},
	}
	var f family
	for _, c := range cases {
		ci := f.newCurve(c.label)
		for _, da := range das {
			f.place(ci, float64(da))
		}
	}
	ratios, err := runner.Map(len(f.x), func(i int) (scenario.Stat, error) {
		ci, da := f.curve[i], int(f.x[i])
		ratio, err := rewiredOverVL2(o, cases[ci].tr, da, di, int64(12300+ci*997+da))
		if err != nil {
			return scenario.Stat{}, fmt.Errorf("fig12c %s DA=%d: %w", cases[ci].label, da, err)
		}
		return scenario.Stat{Mean: ratio, OK: true}, nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = f.fold(ratios, false)
	return fig, nil
}
