package experiments

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/scenario"
)

// homPoint is the scenario point of one homogeneous (N, r, traffic,
// serversPerSwitch) measurement, seeded from (N, r).
func homPoint(o Options, n, r int, tr scenario.Traffic, serversPerSwitch int) scenario.Point {
	return o.evalPoint(&scenario.RRG{N: n, Deg: r, SPS: serversPerSwitch}, tr, int64(n*1000+r))
}

// homUpperBound is the Theorem 1 + ASPL-bound throughput cap the
// homogeneous figures normalize by: f counts every ordered server pair
// under all-to-all traffic, else one flow per server.
func homUpperBound(n, r int, tr scenario.Traffic, serversPerSwitch int) float64 {
	f := n * serversPerSwitch
	if _, ok := tr.(scenario.AllToAll); ok {
		f *= f - 1
	}
	return bounds.ThroughputUpperBound(n, r, f)
}

// homCurves are the three workload curves of Fig. 1a/2a.
var homCurves = []struct {
	label string
	tr    scenario.Traffic
	sps   int
}{
	{"All to All", scenario.AllToAll{}, 1},
	{"Permutation (10 Servers per switch)", scenario.Permutation{}, 10},
	{"Permutation (5 Servers per switch)", scenario.Permutation{}, 5},
}

// homRatios measures the homCurves family on RRGs of size(x) = (N, r), one
// point per curve and x, and reports each point as a ratio to its own
// Theorem 1 bound. The all-to-all curve stops at N = 100: the paper notes
// its simulator does not scale for all-to-all at large N, and we follow
// the same cutoff.
func homRatios(o Options, xs []int, size func(x int) (n, r int)) ([]Series, error) {
	var f family
	for _, c := range homCurves {
		ci := f.newCurve(c.label)
		for _, x := range xs {
			n, r := size(x)
			if _, a2a := c.tr.(scenario.AllToAll); a2a && n > 100 {
				continue
			}
			f.add(ci, float64(x), homPoint(o, n, r, c.tr, c.sps))
		}
	}
	series, err := f.measure(o.engine())
	if err != nil {
		return nil, err
	}
	for ci, c := range homCurves {
		s := &series[ci]
		for i, x := range s.X {
			n, r := size(int(x))
			ub := homUpperBound(n, r, c.tr, c.sps)
			s.Y[i] /= ub
			s.Err[i] /= ub
		}
	}
	return series, nil
}

// Fig1a: throughput of RRGs relative to the upper bound as density grows
// (N = 40 switches, degree sweep) for all-to-all and two permutation
// workloads.
func Fig1a(o Options) (*Figure, error) {
	o = o.withDefaults()
	degrees := []int{3, 5, 7, 9, 11, 13, 15, 17, 19, 23, 27, 33}
	if o.Quick {
		degrees = []int{5, 11, 19, 27, 33}
	}
	series, err := homRatios(o, degrees, func(r int) (int, int) { return 40, r })
	if err != nil {
		return nil, fmt.Errorf("fig1a: %w", err)
	}
	return &Figure{
		ID: "1a", Title: "Random graphs vs. throughput bound (N=40)",
		XLabel: "Network Degree", YLabel: "Throughput (Ratio to Upper-bound)",
		Series: series,
	}, nil
}

// asplSeries measures RRG average shortest path length and the Cerf et al.
// lower bound across a parameter sweep, one scenario point per sweep
// value. Each run's RNG is seeded from (Seed, point, run), so the series
// is independent of evaluation order.
func asplSeries(o Options, pts []struct{ n, r int }, x func(i int) float64) (obs, bound Series, err error) {
	obs = Series{Label: "Observed ASPL"}
	bound = Series{Label: "ASPL lower-bound"}
	spts := make([]scenario.Point, len(pts))
	for i, p := range pts {
		spts[i] = scenario.Point{
			Topo: &scenario.RRG{N: p.n, Deg: p.r}, Traffic: scenario.None{}, Eval: scenario.ASPL{},
			Seed: o.Seed*7919 + int64(1000*p.n+p.r), SeedFactor: 1, Runs: o.Runs,
		}
	}
	stats, err := o.engine().Measure(spts)
	if err != nil {
		return obs, bound, err
	}
	for i, p := range pts {
		obs.X = append(obs.X, x(i))
		obs.Y = append(obs.Y, stats[i].Mean)
		bound.X = append(bound.X, x(i))
		bound.Y = append(bound.Y, bounds.ASPLLowerBound(p.n, p.r))
	}
	return obs, bound, nil
}

// Fig1b: ASPL of RRGs vs. the lower bound at N=40 across degrees.
func Fig1b(o Options) (*Figure, error) {
	o = o.withDefaults()
	degrees := []int{3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 18, 20, 23, 26, 29, 33}
	if o.Quick {
		degrees = []int{3, 6, 10, 16, 23, 33}
	}
	pts := make([]struct{ n, r int }, len(degrees))
	for i, r := range degrees {
		pts[i] = struct{ n, r int }{40, r}
	}
	obs, bound, err := asplSeries(o, pts, func(i int) float64 { return float64(degrees[i]) })
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "1b", Title: "ASPL vs. lower bound (N=40)",
		XLabel: "Network Degree", YLabel: "Path Length",
		Series: []Series{obs, bound},
	}, nil
}

// Fig2a: throughput ratio to bound as size grows (degree fixed at 10).
func Fig2a(o Options) (*Figure, error) {
	o = o.withDefaults()
	sizes := []int{15, 20, 30, 40, 60, 80, 100, 130, 160, 200}
	if o.Quick {
		sizes = []int{15, 30, 60, 100}
	}
	series, err := homRatios(o, sizes, func(n int) (int, int) { return n, 10 })
	if err != nil {
		return nil, fmt.Errorf("fig2a: %w", err)
	}
	return &Figure{
		ID: "2a", Title: "Random graphs vs. throughput bound (degree=10)",
		XLabel: "Network Size", YLabel: "Throughput (Ratio to Upper-bound)",
		Series: series,
	}, nil
}

// Fig2b: ASPL of RRGs vs. the lower bound as size grows (degree=10).
func Fig2b(o Options) (*Figure, error) {
	o = o.withDefaults()
	sizes := []int{15, 20, 30, 40, 60, 80, 101, 120, 140, 160, 180, 200}
	if o.Quick {
		sizes = []int{15, 40, 101, 160, 200}
	}
	pts := make([]struct{ n, r int }, len(sizes))
	for i, n := range sizes {
		pts[i] = struct{ n, r int }{n, 10}
	}
	obs, bound, err := asplSeries(o, pts, func(i int) float64 { return float64(sizes[i]) })
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "2b", Title: "ASPL vs. lower bound (degree=10)",
		XLabel: "Network Size", YLabel: "Path Length",
		Series: []Series{obs, bound},
	}, nil
}

// Fig3: the "curved step" behavior of the ASPL bound at degree 4, and the
// observed/bound ratio approaching 1 as N grows. The paper's x-tics
// (17, 53, 161, 485, 1457) are the sizes where the bound opens new
// distance levels.
func Fig3(o Options) (*Figure, error) {
	o = o.withDefaults()
	sizes := []int{9, 13, 17, 25, 37, 53, 77, 109, 161, 233, 337, 485, 701, 1009, 1457}
	if o.Quick {
		sizes = []int{17, 53, 161, 485}
	}
	const r = 4
	runs := o.Runs
	if runs > 5 {
		runs = 5 // ASPL variance is tiny; the paper notes σ ≪ 1%
	}
	obs := Series{Label: "Observed ASPL"}
	bound := Series{Label: "ASPL lower-bound"}
	ratio := Series{Label: "Ratio"}
	pts := make([]scenario.Point, len(sizes))
	for i, n := range sizes {
		pts[i] = scenario.Point{
			Topo: &scenario.RRG{N: n, Deg: r}, Traffic: scenario.None{}, Eval: scenario.ASPL{},
			Seed: o.Seed*104729 + int64(n), SeedFactor: 1, Runs: runs,
		}
	}
	stats, err := o.engine().Measure(pts)
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		mean := stats[i].Mean
		b := bounds.ASPLLowerBound(n, r)
		obs.X = append(obs.X, float64(n))
		obs.Y = append(obs.Y, mean)
		bound.X = append(bound.X, float64(n))
		bound.Y = append(bound.Y, b)
		ratio.X = append(ratio.X, float64(n))
		ratio.Y = append(ratio.Y, mean/b)
	}
	return &Figure{
		ID: "3", Title: "ASPL vs. lower bound (degree=4), step behavior",
		XLabel: "Network Size (log scale)", YLabel: "Path Length / Ratio",
		Series: []Series{obs, bound, ratio},
	}, nil
}
