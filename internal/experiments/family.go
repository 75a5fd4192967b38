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

// family lays a figure's curves out as one flat list of values, so the
// whole figure is measured in one engine call: value i lies on curve
// curve[i] at x[i]. A curve may omit x values other curves have.
type family struct {
	labels []string
	curve  []int
	x      []float64
	pts    []scenario.Point // value i's engine point (engine-measured families)
}

// newCurve starts a curve and returns its index.
func (f *family) newCurve(label string) int {
	f.labels = append(f.labels, label)
	return len(f.labels) - 1
}

// place lays out the next value on curve c at x, for a family whose
// values are not engine points (the §7 sizing searches).
func (f *family) place(c int, x float64) {
	f.curve = append(f.curve, c)
	f.x = append(f.x, x)
}

// add places engine point p on curve c at x.
func (f *family) add(c int, x float64, p scenario.Point) {
	f.place(c, x)
	f.pts = append(f.pts, p)
}

// measure evaluates every point in one engine call and folds the stats.
func (f *family) measure(e *scenario.Engine) ([]Series, error) {
	stats, err := e.Measure(f.pts)
	if err != nil {
		return nil, err
	}
	return f.fold(stats, true), nil
}

// fold collects value i into curve curve[i], in value order, as Y = Mean
// and, with spread, Err = Std; series come back in curve order. A stat
// that is not OK (a point skipped as infeasible) drops from its own curve
// only.
func (f *family) fold(stats []scenario.Stat, spread bool) []Series {
	series := make([]Series, len(f.labels))
	for c, label := range f.labels {
		series[c].Label = label
	}
	for i, st := range stats {
		if !st.OK {
			continue
		}
		s := &series[f.curve[i]]
		s.X = append(s.X, f.x[i])
		s.Y = append(s.Y, st.Mean)
		if spread {
			s.Err = append(s.Err, st.Std)
		}
	}
	return series
}

// peakFigure measures f's hetero sweep into fig, each curve normalized by
// its own peak (Fig. 4 and 6).
func peakFigure(o Options, f *family, fig *Figure) (*Figure, error) {
	series, err := f.measure(o.sweepEngine())
	if err != nil {
		return nil, err
	}
	for i := range series {
		normalize(&series[i], peak(series[i]))
	}
	fig.Series = series
	return fig, nil
}

// detailedSweep measures one curve — configuration cfgAt(x) at every x,
// seeded seedMix + x·1000 — keeping every run's graph and flow result, and
// reduces each feasible point's runs with reduce. It returns the kept xs
// and their reductions, in x order.
//
// The detailed figures call the engine once per curve, not once per
// figure: each Detail holds a run's graph and mcf.Result, so flattening
// full-mode Fig. 11 (18 curves × 11 x × 20 runs) would hold 3,960 of them
// at once.
func detailedSweep[T any](o Options, cfgAt func(x float64) hetero.Config, xs []float64, seedMix int64,
	reduce func(cfg hetero.Config, dets []scenario.Detail) T) ([]float64, []T, error) {
	pts := make([]scenario.Point, len(xs))
	for i, x := range xs {
		pts[i] = o.evalPoint(&scenario.Hetero{Cfg: cfgAt(x)}, scenario.Permutation{}, seedMix+int64(x*1000))
	}
	details, err := o.sweepEngine().MeasureDetailed(pts)
	if err != nil {
		return nil, nil, err
	}
	var kept []float64
	var vals []T
	for i, dets := range details {
		if dets == nil {
			continue // infeasible sweep point
		}
		kept = append(kept, xs[i])
		vals = append(vals, reduce(cfgAt(xs[i]), dets))
	}
	return kept, vals, nil
}

// normalize divides s's Y and Err by ref in place. A zero ref (a curve
// that measured nothing) leaves the raw values.
func normalize(s *Series, ref float64) {
	if ref == 0 {
		return
	}
	for i := range s.Y {
		s.Y[i] /= ref
	}
	for i := range s.Err {
		s.Err[i] /= ref
	}
}

// peak is the largest Y over ss, or 0 when none is positive.
func peak(ss ...Series) float64 {
	var m float64
	for _, s := range ss {
		for _, y := range s.Y {
			if y > m {
				m = y
			}
		}
	}
	return m
}

// valueAt is s's Y at x (exact match); ok is false when s has no point
// there.
func valueAt(s Series, x float64) (y float64, ok bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}
