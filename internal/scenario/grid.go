package scenario

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// MaxGridRuns caps the point-runs (points × runs per point) one grid may
// expand to. Grid lines arrive over HTTP, so every range, the axis
// product and the run count are checked against it before any value or
// point is materialized.
const MaxGridRuns = 4096

// Axis is one sweep dimension of a Grid: a parameter of the topology,
// traffic, or evaluator spec swept over explicit values.
type Axis struct {
	// Target is "topo", "traffic", or "eval".
	Target string
	// Param is the spec parameter the axis overrides (e.g. "deg").
	Param string
	// Values are the swept values, as spec-parameter strings.
	Values []string
}

// Grid is a declarative scenario sweep: base specs for the three
// registries, any number of sweep axes (their cartesian product is the
// point grid), and run controls. Per-point seed derivation: point i (in
// axis-product order) uses Seed + i as its base seed, giving every point
// a distinct deterministic RNG stream. The seed is positional: appending
// values to the last axis leaves earlier points' streams (and cache
// keys) untouched, but inserting a value mid-axis re-seeds every later
// point.
type Grid struct {
	Topo    string
	Traffic string
	Eval    string
	Sweep   []Axis
	Runs    int
	Seed    int64
	Epsilon float64
}

// GridPoint is one materialized point of a grid with its sweep
// coordinates.
type GridPoint struct {
	Point
	// Coords holds the axis values of this point, in axis order.
	Coords []string
}

// Points materializes the grid: the cartesian product of the sweep axes
// (base specs with each axis parameter overridden), in row-major axis
// order. A grid with no axes is a single point. Traffic defaults to none
// and the evaluator to mcf; a point whose evaluator reads the traffic
// matrix (mcf, packet, or failures over either) must name a traffic.
func (g Grid) Points() ([]GridPoint, error) {
	if g.Topo == "" {
		return nil, fmt.Errorf("scenario: grid needs a topo spec")
	}
	if g.Traffic == "" {
		g.Traffic = "none"
	}
	if g.Eval == "" {
		g.Eval = "mcf"
	}
	// Bound points × runs before the odometer materializes anything. The
	// product stops growing once past the cap, so it cannot overflow.
	total := Point{Runs: g.Runs}.runs()
	for _, ax := range g.Sweep {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("scenario: sweep axis %s.%s has no values", ax.Target, ax.Param)
		}
		if total <= MaxGridRuns {
			total *= len(ax.Values)
		}
	}
	if total > MaxGridRuns {
		return nil, fmt.Errorf("scenario: grid exceeds %d point-runs (points × runs)", MaxGridRuns)
	}
	idx := make([]int, len(g.Sweep))
	var out []GridPoint
	for {
		topoSpec, trafficSpec, evalSpec := g.Topo, g.Traffic, g.Eval
		coords := make([]string, len(g.Sweep))
		for ai, ax := range g.Sweep {
			v := ax.Values[idx[ai]]
			coords[ai] = v
			var err error
			switch ax.Target {
			case "", "topo":
				topoSpec, err = overrideParam(topoSpec, ax.Param, v)
			case "traffic":
				trafficSpec, err = overrideParam(trafficSpec, ax.Param, v)
			case "eval":
				evalSpec, err = overrideParam(evalSpec, ax.Param, v)
			default:
				err = fmt.Errorf("scenario: unknown sweep target %q (want topo, traffic, or eval)", ax.Target)
			}
			if err != nil {
				return nil, err
			}
		}
		topo, err := ParseTopology(topoSpec)
		if err != nil {
			return nil, err
		}
		tr, err := ParseTraffic(trafficSpec)
		if err != nil {
			return nil, err
		}
		ev, err := ParseEvaluator(evalSpec)
		if err != nil {
			return nil, err
		}
		if _, none := tr.(None); none && readsTraffic(ev) {
			return nil, fmt.Errorf("scenario: eval=%s reads the traffic matrix, which traffic=none leaves empty; add a traffic= spec such as traffic=permutation", ev.Spec())
		}
		out = append(out, GridPoint{
			Point: Point{
				Topo: topo, Traffic: tr, Eval: ev,
				Seed: g.Seed + int64(len(out)), Runs: g.Runs, Epsilon: g.Epsilon,
			},
			Coords: coords,
		})
		// Advance the odometer.
		ai := len(idx) - 1
		for ; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(g.Sweep[ai].Values) {
				break
			}
			idx[ai] = 0
		}
		if ai < 0 {
			break
		}
	}
	return out, nil
}

// overrideParam sets (or replaces) one key=value in a spec string.
func overrideParam(spec, key, value string) (string, error) {
	kind, params, err := SplitSpec(spec)
	if err != nil {
		return "", err
	}
	params[key] = value
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kv := make([]string, 0, 2*len(keys))
	for _, k := range keys {
		kv = append(kv, k, params[k])
	}
	return FormatSpec(kind, kv...), nil
}

// Run materializes the grid and measures every point on the engine.
func (g Grid) Run(e *Engine) ([]GridPoint, []Stat, error) {
	gps, err := g.Points()
	if err != nil {
		return nil, nil, err
	}
	pts := make([]Point, len(gps))
	for i, gp := range gps {
		pts[i] = gp.Point
	}
	stats, err := e.Measure(pts)
	if err != nil {
		return nil, nil, err
	}
	return gps, stats, nil
}

// WriteTSV runs the grid and writes one row per point: the sweep
// coordinates followed by mean, std, min, max over runs. Infeasible
// (skipped) points are commented out.
func (g Grid) WriteTSV(e *Engine, w io.Writer) error {
	gps, stats, err := g.Run(e)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# scenario: topo=%s traffic=%s eval=%s runs=%d seed=%d eps=%g\n",
		g.Topo, g.Traffic, g.Eval, gps[0].runs(), g.Seed, g.Epsilon); err != nil {
		return err
	}
	cols := make([]string, 0, len(g.Sweep)+4)
	for _, ax := range g.Sweep {
		cols = append(cols, ax.Param)
	}
	cols = append(cols, "mean", "std", "min", "max")
	if _, err := fmt.Fprintf(w, "# %s\n", strings.Join(cols, "\t")); err != nil {
		return err
	}
	for i, gp := range gps {
		row := append([]string(nil), gp.Coords...)
		st := stats[i]
		if !st.OK {
			if _, err := fmt.Fprintf(w, "# %s\tinfeasible\n", strings.Join(row, "\t")); err != nil {
				return err
			}
			continue
		}
		row = append(row,
			FloatParam(st.Mean), FloatParam(st.Std), FloatParam(st.Min), FloatParam(st.Max))
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// ParseGrid parses the topobench -scenario line grammar:
//
//	topo=rrg:n=400,deg=10,sps=5 traffic=permutation eval=mcf sweep=deg:4..16
//
// Fields are whitespace-separated key=value tokens. Recognized keys:
// topo, traffic, eval (registry specs), sweep (repeatable), runs, seed,
// eps. A sweep token is param:values where values is lo..hi[:step]
// (integer range) or a comma list (v1,v2,v3); prefix the parameter with
// "traffic." or "eval." to sweep those specs instead of the topology.
// runs must be non-negative (0 means the default), eps must lie in
// [0, 0.5) (0 means the solver default), and no axis may hold more than
// MaxGridRuns values.
func ParseGrid(line string) (Grid, error) {
	g := Grid{}
	for _, tok := range strings.Fields(line) {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return g, fmt.Errorf("scenario: bad token %q (want key=value)", tok)
		}
		switch key {
		case "topo":
			g.Topo = val
		case "traffic":
			g.Traffic = val
		case "eval":
			g.Eval = val
		case "sweep":
			ax, err := parseAxis(val)
			if err != nil {
				return g, err
			}
			g.Sweep = append(g.Sweep, ax)
		case "runs":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return g, fmt.Errorf("scenario: bad runs %q", val)
			}
			g.Runs = n
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return g, fmt.Errorf("scenario: bad seed %q", val)
			}
			g.Seed = n
		case "eps":
			// 0 means the solver default; mcf.Solve rejects ε ≥ 0.5.
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(f) || f < 0 || f >= 0.5 {
				return g, fmt.Errorf("scenario: bad eps %q (want 0 <= eps < 0.5)", val)
			}
			g.Epsilon = f
		default:
			return g, fmt.Errorf("scenario: unknown grid key %q (want topo, traffic, eval, sweep, runs, seed, eps)", key)
		}
	}
	if g.Topo == "" {
		return g, fmt.Errorf("scenario: grid needs topo=<spec>")
	}
	return g, nil
}

// parseAxis parses "param:lo..hi[:step]" or "param:v1,v2,..." with an
// optional "traffic."/"eval." target prefix on the parameter.
func parseAxis(s string) (Axis, error) {
	param, vals, ok := strings.Cut(s, ":")
	if !ok || param == "" || vals == "" {
		return Axis{}, fmt.Errorf("scenario: bad sweep %q (want param:values)", s)
	}
	ax := Axis{Target: "topo", Param: param}
	if t, p, hasDot := strings.Cut(param, "."); hasDot && (t == "topo" || t == "traffic" || t == "eval") {
		ax.Target, ax.Param = t, p
	}
	if lo, hi, isRange := strings.Cut(vals, ".."); isRange {
		step := 1
		if hiPart, stepPart, hasStep := strings.Cut(hi, ":"); hasStep {
			hi = hiPart
			st, err := strconv.Atoi(stepPart)
			if err != nil || st <= 0 {
				return Axis{}, fmt.Errorf("scenario: bad sweep step in %q", s)
			}
			step = st
		}
		a, err1 := strconv.Atoi(lo)
		b, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || b < a {
			return Axis{}, fmt.Errorf("scenario: bad sweep range %q (want lo..hi with lo <= hi)", vals)
		}
		// Count before iterating: b−a can overflow int, but never uint64.
		span := (uint64(b) - uint64(a)) / uint64(step)
		if span >= MaxGridRuns {
			return Axis{}, fmt.Errorf("scenario: sweep %s has more than %d values", param, MaxGridRuns)
		}
		ax.Values = make([]string, span+1)
		for i := range ax.Values {
			ax.Values[i] = strconv.Itoa(a + i*step) // ≤ b, exact even if i*step wraps
		}
		return ax, nil
	}
	if strings.Count(vals, ",") >= MaxGridRuns {
		return Axis{}, fmt.Errorf("scenario: sweep %s has more than %d values", param, MaxGridRuns)
	}
	ax.Values = strings.Split(vals, ",")
	return ax, nil
}
