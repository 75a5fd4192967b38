package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/flowcheck"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// sweepPass is the number of grid lines in one pass of the sweep
// workload.
const sweepPass = 192

// sweepVerifyEvery picks the seed-fixed sample of traced ops whose first
// run is also solved with RecordPaths and certified by flowcheck.
const sweepVerifyEvery = 8

// The sweep workload's grid families, sized so an op costs within about
// 2× of any other: rrg degree sweeps (§4) at even positions, interleaved
// with the heterogeneous families (§5–7).
var (
	sweepRRG    = "topo=rrg:n=20,deg=6,sps=3 traffic=permutation eval=mcf sweep=deg:4..8:2 runs=2 seed=%d"
	sweepHetero = []string{
		"topo=plrrg:n=20,avg=6,kmax=12,sfrac=0.4 traffic=permutation eval=mcf sweep=avg:5,6,7 runs=2 seed=%d",
		"topo=vl2:da=8,di=8 traffic=permutation eval=mcf sweep=da:10..14:2 runs=2 seed=%d",
		"topo=rewired-vl2:da=8,di=8 traffic=permutation eval=mcf sweep=da:12..16:2 runs=2 seed=%d",
	}
)

// sweepLines is the sweep workload's op list: n cold batch grid lines,
// every one on a fresh seed derived from the workload seed.
func sweepLines(seed int64, n int) []string {
	lines := make([]string, n)
	for i := range lines {
		s := 1 + seed*1_000_000 + int64(i)*10
		if i%2 == 0 {
			lines[i] = fmt.Sprintf(sweepRRG, s)
		} else {
			lines[i] = fmt.Sprintf(sweepHetero[(i/2)%len(sweepHetero)], s)
		}
	}
	return lines
}

// sweep runs each grid line cold on a fresh scenario.Engine (its own
// empty cache), the batch figure path.
type sweep struct {
	seed  int64
	lines []string
	// ref holds each op's run values from its first evaluation; every
	// later pass must reproduce them bit for bit.
	ref [][][]float64

	// Traced decomposition, one entry per replayed solve or op.
	solves   []*mcf.Result
	engineMs []float64
	treeUs   []float64
	bucketUs []float64
}

func newSweep(seed int64, _ string) workload { return &sweep{seed: seed} }

func (s *sweep) ops() int     { return len(s.lines) }
func (s *sweep) reset() error { return nil }
func (s *sweep) close()       {}

// sweepSetupOps is how many leading ops set-up evaluates and certifies.
const sweepSetupOps = 4

// setup builds the op list and evaluates its first few lines once,
// certifying each run by replay, so lazy initialisation is paid before
// measuring.
func (s *sweep) setup(string) error {
	s.lines = sweepLines(s.seed, sweepPass)
	s.ref = make([][][]float64, len(s.lines))
	for i := 0; i < sweepSetupOps; i++ {
		vals, pts, err := s.eval(i)
		if err != nil {
			return err
		}
		s.ref[i] = vals
		for j, p := range pts {
			for r := range vals[j] {
				rp, err := replayRun(p, r, false, nil, 0, 0)
				if err != nil {
					return err
				}
				if got := rp.res.Throughput; math.Float64bits(got) != math.Float64bits(vals[j][r]) {
					return fmt.Errorf("set-up replay of %q point %d run %d: %v != engine %v", s.lines[i], j, r, got, vals[j][r])
				}
			}
		}
	}
	return nil
}

// eval parses op i's line and measures it on a fresh engine.
func (s *sweep) eval(i int) ([][]float64, []scenario.Point, error) {
	g, err := scenario.ParseGrid(s.lines[i])
	if err != nil {
		return nil, nil, err
	}
	gps, err := g.Points()
	if err != nil {
		return nil, nil, err
	}
	pts := make([]scenario.Point, len(gps))
	for j, gp := range gps {
		pts[j] = gp.Point
	}
	eng := &scenario.Engine{Cache: scenario.NewCache(), SkipInfeasible: true}
	vals, err := eng.MeasureRuns(pts)
	if err != nil {
		return nil, nil, err
	}
	return vals, pts, nil
}

func (s *sweep) op(i int, t *tracer) error {
	root := t.begin(i, 0, "op")
	defer t.end(root)
	var vals [][]float64
	var pts []scenario.Point
	var err error
	e2e := t.timed(i, root, "e2e", func() { vals, pts, err = s.eval(i) })
	if err != nil {
		return err
	}
	if err := s.check(i, vals, pts); err != nil {
		return err
	}
	if t == nil {
		return nil
	}
	// Decomposition: replay every run on its own RNG stream, timing the
	// layers the engine calls. The determinism invariant makes each
	// replayed throughput bit-equal to the engine's value.
	var runs time.Duration
	nruns := 0
	for j, p := range pts {
		for r := range vals[j] {
			verify := r == 0 && j == 0 && (int64(i)+s.seed)%sweepVerifyEvery == 0
			rp, err := replayRun(p, r, verify, t, i, root)
			if err != nil {
				return err
			}
			if math.Float64bits(rp.res.Throughput) != math.Float64bits(vals[j][r]) {
				return fmt.Errorf("replay of point %d run %d: %v != engine %v", j, r, rp.res.Throughput, vals[j][r])
			}
			s.solves = append(s.solves, rp.res)
			if rp.treeUs > 0 {
				s.treeUs = append(s.treeUs, rp.treeUs)
				s.bucketUs = append(s.bucketUs, rp.bucketUs)
			}
			runs += rp.layers
			nruns++
		}
	}
	par := min(runtime.GOMAXPROCS(0), nruns)
	s.engineMs = append(s.engineMs, float64((e2e-runs/time.Duration(par)).Nanoseconds())/1e6)
	return nil
}

// validValue reports whether a run value is a usable throughput:
// positive and finite.
func validValue(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// check requires every point to be feasible with positive finite run
// values, identical to the op's first evaluation.
func (s *sweep) check(i int, vals [][]float64, pts []scenario.Point) error {
	if len(vals) != len(pts) {
		return fmt.Errorf("%d values for %d points", len(vals), len(pts))
	}
	for j, v := range vals {
		if len(v) != pts[j].Runs {
			return fmt.Errorf("point %d: %d runs, want %d (infeasible?)", j, len(v), pts[j].Runs)
		}
		for _, x := range v {
			if !validValue(x) {
				return fmt.Errorf("point %d: run value %v", j, x)
			}
		}
	}
	if s.ref[i] == nil {
		s.ref[i] = vals
		return nil
	}
	for j := range vals {
		for r := range vals[j] {
			if math.Float64bits(vals[j][r]) != math.Float64bits(s.ref[i][j][r]) {
				return fmt.Errorf("point %d run %d: %v, first pass gave %v", j, r, vals[j][r], s.ref[i][j][r])
			}
		}
	}
	return nil
}

// runRNG is run r's RNG stream, derived as the engine derives it:
// Seed*SeedFactor + r.
func runRNG(p scenario.Point, r int) *rand.Rand {
	factor := p.SeedFactor
	if factor == 0 {
		factor = scenario.DefaultSeedFactor
	}
	return rand.New(rand.NewSource(p.Seed*factor + int64(r)))
}

// replayed is one run rebuilt and solved outside the engine.
type replayed struct {
	res *mcf.Result
	// layers is the time spent in build, traffic and solve.
	layers time.Duration
	// treeUs and bucketUs are the mean time of one full shortest-path
	// tree under the solve's dual lengths (traced replays of run 0 only).
	treeUs, bucketUs float64
}

// replayRun rebuilds run r of point p on its RNG stream and solves it
// the way the mcf evaluator does, under spans on t (nil: untimed). With
// verify, the solve records paths and the result must pass flowcheck.
func replayRun(p scenario.Point, r int, verify bool, t *tracer, op, parent int) (replayed, error) {
	var out replayed
	run := t.begin(op, parent, "scenario.run")
	defer t.end(run)
	rng := runRNG(p, r)
	var g *graph.Graph
	var err error
	out.layers = t.timed(op, run, "scenario.build", func() { g, err = p.Topo.Build(rng) })
	if err != nil {
		return out, err
	}
	var flows []traffic.Flow
	out.layers += t.timed(op, run, "scenario.traffic", func() {
		var tm *traffic.Matrix
		if tm, err = p.Traffic.Matrix(rng, g); err == nil {
			flows = tm.Flows
		}
	})
	if err != nil {
		return out, err
	}
	out.layers += t.timed(op, run, "mcf.solve", func() {
		out.res, err = mcf.Solve(g, flows, mcf.Options{Epsilon: p.Epsilon, RecordPaths: verify})
	})
	if err != nil {
		return out, fmt.Errorf("replay solve: %w", err)
	}
	if verify {
		var rep *flowcheck.Report
		t.timed(op, run, "flowcheck.verify", func() { rep, err = flowcheck.Verify(g, flows, out.res, flowcheck.Options{}) })
		if err != nil {
			return out, err
		}
		if !rep.OK() {
			return out, fmt.Errorf("flowcheck: %v", rep.Err())
		}
	}
	if t != nil && r == 0 && len(out.res.DualLens) == g.NumArcs() {
		out.treeUs, out.bucketUs = treeTimes(g, out.res.DualLens, t, op, run)
	}
	return out, nil
}

// treeTimes times one full shortest-path tree from every node under the
// solve's dual lengths, on the heap traversal and on the bucket queue
// (Δ from graph.LengthRange), and returns the mean µs per tree of each.
func treeTimes(g *graph.Graph, lens []float64, t *tracer, op, parent int) (heapUs, bucketUs float64) {
	ds := g.NewDijkstraScratch()
	n := float64(g.N())
	d := t.timed(op, parent, "graph.tree", func() {
		for src := 0; src < g.N(); src++ {
			ds.Run(src, lens, nil)
		}
	})
	heapUs = float64(d.Nanoseconds()) / 1e3 / n
	delta, _ := graph.LengthRange(lens)
	d = t.timed(op, parent, "graph.bucket_tree", func() {
		for src := 0; src < g.N(); src++ {
			ds.RunBucketed(src, lens, nil, delta)
		}
	})
	return heapUs, float64(d.Nanoseconds()) / 1e3 / n
}

// solveLayers derives the solver's per-layer counts from a set of
// solves: mean phases and tree work per solve, the bucket-queue share of
// tree builds and the prebuild share of solve time.
func solveLayers(solves []*mcf.Result) map[string]float64 {
	l := map[string]float64{}
	if len(solves) == 0 {
		return l
	}
	var phases, builds, repairs, prebuilds, buckets, preNs, solveNs float64
	for _, r := range solves {
		phases += float64(r.Phases)
		builds += float64(r.TreeBuilds)
		repairs += float64(r.TreeRepairs)
		prebuilds += float64(r.TreePrebuilds)
		buckets += float64(r.BucketBuilds)
		preNs += float64(r.Timing.PrebuildNanos)
		solveNs += float64(r.Timing.SolveNanos)
	}
	n := float64(len(solves))
	l["mcf.phases"] = phases / n
	l["mcf.tree_builds"] = builds / n
	l["mcf.tree_repairs"] = repairs / n
	l["mcf.tree_prebuilds"] = prebuilds / n
	if builds > 0 {
		l["mcf.bucket_share"] = buckets / builds
	}
	if solveNs > 0 {
		l["mcf.prebuild_share"] = preNs / solveNs
	}
	return l
}

func (s *sweep) layers(t *tracer) map[string]float64 {
	l := solveLayers(s.solves)
	l["mcf.solve_ms"] = median(durationsMs(t.spans, "mcf.solve"))
	l["scenario.build_ms"] = median(durationsMs(t.spans, "scenario.build"))
	l["scenario.traffic_ms"] = median(durationsMs(t.spans, "scenario.traffic"))
	l["scenario.engine_ms"] = median(s.engineMs)
	l["flowcheck.verify_ms"] = median(durationsMs(t.spans, "flowcheck.verify"))
	l["graph.tree_us"] = median(s.treeUs)
	l["graph.bucket_tree_us"] = median(s.bucketUs)
	return l
}
