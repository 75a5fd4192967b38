package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/flowcheck"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/traffic"
)

// The whatif workload: K parent fabrics primed at frac=0, then every
// (fabric, frac) failure-ladder rung asked once per pass, in a
// seed-fixed shuffle.
const (
	whatifFabrics = 32
	whatifGrid    = "topo=rrg:n=32,deg=8,sps=4 traffic=permutation eval=failures:frac=%s,eval=mcf runs=1 seed=%d"
)

var whatifFracs = []string{"0.05", "0.1", "0.15", "0.2"}

// whatifOp is one rung: fabric k at failure fraction frac.
type whatifOp struct {
	line string
	body []byte
	// point and parent are the rung's scenario point and its frac=0
	// parent, for the traced decomposition.
	point, parent scenario.Point
	frac          float64
}

// whatifLines returns the priming lines (one per fabric, frac=0) and the
// rung op list: every (fabric, frac) pair in a shuffle fixed by seed.
func whatifLines(seed int64) (prime, rungs []string) {
	fabricSeed := func(k int) int64 { return 1 + seed*1000 + int64(k) }
	for k := 0; k < whatifFabrics; k++ {
		prime = append(prime, fmt.Sprintf(whatifGrid, "0", fabricSeed(k)))
		for _, f := range whatifFracs {
			rungs = append(rungs, fmt.Sprintf(whatifGrid, f, fabricSeed(k)))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(rungs), func(i, j int) { rungs[i], rungs[j] = rungs[j], rungs[i] })
	return prime, rungs
}

// whatif restarts a warm-start daemon over a copy of the primed store
// before every pass, so each pass asks rungs no daemon has seen.
type whatif struct {
	seed  int64
	work  string
	rungs []whatifOp
	// snapDir is the primed store; snap reads it for the decomposition,
	// scratch takes the decomposition's timed saves.
	snapDir       string
	snap, scratch *store.Store
	d             *daemon
	passes        int
	// ref holds each op's answer bytes from its first pass.
	ref [][]byte

	// Traced decomposition.
	traced                  bool
	warmStarts, warmAttempt float64
	solves                  []*mcf.Result
	leadMs                  []float64
	treeUs, bucketUs        []float64
}

func newWhatif(seed int64, work string) workload { return &whatif{seed: seed, work: work} }

func (w *whatif) ops() int { return len(w.rungs) }

// setup primes a fresh store with the parent fabrics through a first
// daemon, then closes it; passes restart daemons over copies of it.
func (w *whatif) setup(dir string) error {
	w.close()
	prime, rungs := whatifLines(w.seed)
	w.snapDir = filepath.Join(dir, "primed")
	d, err := startDaemon(w.snapDir)
	if err != nil {
		return err
	}
	for _, line := range prime {
		if _, _, err := d.eval(evalBody(line)); err != nil {
			d.close()
			return fmt.Errorf("priming %q: %w", line, err)
		}
	}
	d.close()
	w.rungs = make([]whatifOp, len(rungs))
	for i, line := range rungs {
		g, err := scenario.ParseGrid(line)
		if err != nil {
			return err
		}
		gps, err := g.Points()
		if err != nil {
			return err
		}
		p := gps[0].Point
		pp, ok := scenario.ParentPoint(p)
		if !ok {
			return fmt.Errorf("rung %q has no parent point", line)
		}
		w.rungs[i] = whatifOp{line: line, body: evalBody(line), point: p, parent: pp,
			frac: p.Eval.(scenario.Failures).Frac}
	}
	w.ref = make([][]byte, len(rungs))
	if w.snap, err = store.Open(w.snapDir); err != nil {
		return err
	}
	w.scratch, err = store.Open(filepath.Join(dir, "scratch"))
	return err
}

// reset closes the pass's daemon and starts a fresh one over a fresh copy
// of the primed store, so the next pass's rungs are all unasked.
func (w *whatif) reset() error {
	if w.d != nil {
		if w.traced {
			m, err := w.d.counters("warm_starts_total", "warm_attempts_total")
			if err != nil {
				return err
			}
			w.warmStarts += m["warm_starts_total"]
			w.warmAttempt += m["warm_attempts_total"]
		}
		w.d.close()
		w.d = nil
	}
	dir := filepath.Join(w.work, fmt.Sprintf("pass-%d", w.passes))
	if w.passes > 0 {
		os.RemoveAll(filepath.Join(w.work, fmt.Sprintf("pass-%d", w.passes-1)))
	}
	w.passes++
	if err := copyDir(w.snapDir, dir); err != nil {
		return err
	}
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	w.d = d
	return nil
}

func (w *whatif) close() {
	w.d.close()
	w.d = nil
}

func (w *whatif) op(i int, t *tracer) error {
	o := &w.rungs[i]
	root := t.begin(i, 0, "op")
	defer t.end(root)
	var raw []byte
	var err error
	var val float64
	e2e := t.timed(i, root, "e2e", func() {
		var resp *service.EvalResponse
		raw, resp, err = w.d.eval(o.body)
		if err == nil {
			if len(resp.Points) != 1 || resp.Points[0].Runs != 1 {
				err = fmt.Errorf("rung answered %d points", len(resp.Points))
			} else {
				val = resp.Points[0].Values[0]
			}
		}
	})
	if err != nil {
		return err
	}
	if w.ref[i] == nil {
		w.ref[i] = raw
	} else if !bytes.Equal(raw, w.ref[i]) {
		return fmt.Errorf("rung %q answered different bytes than in its first pass", o.line)
	}
	if t == nil {
		return nil
	}
	w.traced = true
	chain, err := w.replay(o, val, t, i, root)
	if err != nil {
		return err
	}
	w.leadMs = append(w.leadMs, float64((e2e-chain).Nanoseconds())/1e6)
	return nil
}

// replay decomposes one rung into the warm chain the daemon runs: parent
// witness read from the primed store, rebuild, failure, witness mapping,
// warm solve, certification (and cold fallback), and a linked save. The
// solve must bit-equal the daemon's answer. It returns the chain's time.
func (w *whatif) replay(o *whatifOp, want float64, t *tracer, op, root int) (time.Duration, error) {
	p := o.point
	var plens []float64
	var ok bool
	chain := t.timed(op, root, "store.load", func() {
		_, plens, ok = w.snap.LoadAddrBuf(store.Addr(scenario.WitnessKey(o.parent.Key(), 0)), nil, nil)
	})
	if !ok {
		return 0, fmt.Errorf("parent witness of %q missing from the primed store", o.line)
	}
	rng := runRNG(p, 0)
	var g, fg *graph.Graph
	var tm *traffic.Matrix
	var err error
	chain += t.timed(op, root, "scenario.build", func() { g, err = p.Topo.Build(rng) })
	if err != nil {
		return 0, err
	}
	chain += t.timed(op, root, "scenario.traffic", func() { tm, err = p.Traffic.Matrix(rng, g) })
	if err != nil {
		return 0, err
	}
	chain += t.timed(op, root, "graph.fail_links", func() { fg, err = g.FailRandomLinks(rng, o.frac) })
	if err != nil {
		return 0, err
	}
	var wl []float64
	chain += t.timed(op, root, "scenario.map_lens", func() { wl = scenario.MapArcLens(g, fg, plens) })
	var res *mcf.Result
	opt := mcf.Options{Epsilon: p.Epsilon, WarmLens: wl}
	chain += t.timed(op, root, "mcf.warm_solve", func() { res, err = mcf.Solve(fg, tm.Flows, opt) })
	if err != nil {
		return 0, err
	}
	w.solves = append(w.solves, res)
	if res.WarmStarted {
		var rep *flowcheck.Report
		chain += t.timed(op, root, "flowcheck.verify", func() { rep, err = flowcheck.Verify(fg, tm.Flows, res, flowcheck.Options{}) })
		if err != nil {
			return 0, err
		}
		if !rep.OK() {
			opt.WarmLens = nil
			chain += t.timed(op, root, "mcf.solve", func() { res, err = mcf.Solve(fg, tm.Flows, opt) })
			if err != nil {
				return 0, err
			}
		}
	}
	if math.Float64bits(res.Throughput) != math.Float64bits(want) {
		return 0, fmt.Errorf("replay of %q: %v != daemon %v", o.line, res.Throughput, want)
	}
	chain += t.timed(op, root, "store.save", func() {
		err = w.scratch.SaveLinked(p.Key(), []float64{res.Throughput}, o.parent.Key())
	})
	if err != nil {
		return 0, err
	}
	// Outside the chain: trees under the warm solve's dual lengths, and the
	// cold solve of the same rung that the warm start saves.
	if len(res.DualLens) == fg.NumArcs() {
		h, b := treeTimes(fg, res.DualLens, t, op, root)
		w.treeUs, w.bucketUs = append(w.treeUs, h), append(w.bucketUs, b)
	}
	t.timed(op, root, "mcf.solve", func() { _, err = mcf.Solve(fg, tm.Flows, mcf.Options{Epsilon: p.Epsilon}) })
	return chain, err
}

func (w *whatif) layers(t *tracer) map[string]float64 {
	if w.d != nil {
		if m, err := w.d.counters("warm_starts_total", "warm_attempts_total"); err == nil {
			w.warmStarts += m["warm_starts_total"]
			w.warmAttempt += m["warm_attempts_total"]
		}
	}
	l := solveLayers(w.solves)
	l["mcf.warm_phases"] = l["mcf.phases"]
	l["mcf.warm_solve_ms"] = median(durationsMs(t.spans, "mcf.warm_solve"))
	l["mcf.solve_ms"] = median(durationsMs(t.spans, "mcf.solve"))
	l["scenario.build_ms"] = median(durationsMs(t.spans, "scenario.build"))
	l["scenario.traffic_ms"] = median(durationsMs(t.spans, "scenario.traffic"))
	l["graph.tree_us"] = median(w.treeUs)
	l["graph.bucket_tree_us"] = median(w.bucketUs)
	l["flowcheck.verify_ms"] = median(durationsMs(t.spans, "flowcheck.verify"))
	l["scenario.map_lens_us"] = median(durationsMs(t.spans, "scenario.map_lens")) * 1000
	l["store.load_us"] = median(durationsMs(t.spans, "store.load")) * 1000
	l["store.save_us"] = median(durationsMs(t.spans, "store.save")) * 1000
	l["service.lead_ms"] = median(w.leadMs)
	if w.warmAttempt > 0 {
		l["scenario.warm_cert_ratio"] = w.warmStarts / w.warmAttempt
	}
	return l
}
