package experiments

import (
	"repro/internal/hetero"
	"repro/internal/scenario"
)

// engine returns the scenario engine every figure runner executes on, over
// the figure's solve cache (see Options.Cache — points sharing instances
// never re-solve). Infeasible builds are errors here, exactly as the
// pre-engine runners treated them; sweeps that legitimately skip
// unrealizable grid points use sweepEngine.
func (o Options) engine() *scenario.Engine {
	return &scenario.Engine{Cache: o.Cache}
}

// sweepEngine is engine with infeasible-point skipping, for the hetero
// parameter sweeps whose grids intentionally run past the physically
// realizable region (Fig. 4/6–11).
func (o Options) sweepEngine() *scenario.Engine {
	e := o.engine()
	e.SkipInfeasible = true
	return e
}

// evalPoint assembles a figure's mcf point: run i draws from
// (Seed + seedMix)·DefaultSeedFactor + i, over the figure's runs and ε.
func (o Options) evalPoint(topo scenario.Topology, tr scenario.Traffic, seedMix int64) scenario.Point {
	return scenario.Point{
		Topo: topo, Traffic: tr, Eval: scenario.MCF{},
		Seed: o.Seed + seedMix, Runs: o.Runs, Epsilon: o.Epsilon,
	}
}

// sweepPoint is one evaluated point of a 1-D parameter sweep.
type sweepPoint struct {
	x, mean, std float64
	ok           bool // false: the point was physically infeasible, skip it
}

// sweepHetero evaluates a heterogeneous-topology sweep on the scenario
// engine, one point per grid value, skipping infeasible points. Results
// come back in grid order, so downstream reduction is byte-identical to a
// serial run.
func sweepHetero(o Options, xs []float64, cfgAt func(x float64) hetero.Config, seedAt func(x float64) int64) ([]sweepPoint, error) {
	pts := make([]scenario.Point, len(xs))
	for i, x := range xs {
		pts[i] = o.evalPoint(&scenario.Hetero{Cfg: cfgAt(x)}, scenario.Permutation{}, seedAt(x))
	}
	stats, err := o.sweepEngine().Measure(pts)
	if err != nil {
		return nil, err
	}
	out := make([]sweepPoint, len(xs))
	for i, st := range stats {
		out[i] = sweepPoint{x: xs[i], mean: st.Mean, std: st.Std, ok: st.OK}
	}
	return out, nil
}

// collectSeries folds kept sweep points into a Series plus the raw means
// used by the normalization helpers.
func collectSeries(label string, pts []sweepPoint) (Series, []float64) {
	s := Series{Label: label}
	var raw []float64
	for _, p := range pts {
		if !p.ok {
			continue
		}
		s.X = append(s.X, p.x)
		raw = append(raw, p.mean)
		s.Err = append(s.Err, p.std)
	}
	return s, raw
}
