package scenario

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/flowcheck"
	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/mcf"
	"repro/internal/packet"
	"repro/internal/spectral"
	"repro/internal/trace"
)

// Built-in evaluator registry entries: the paper's throughput metric
// (mcf), topology-structure metrics (aspl, bisection via maxflow, cut),
// and the packet-level simulator.
func init() {
	RegisterEvaluator("mcf", func(p Params) (Evaluator, error) {
		return MCF{}, p.Reader().Err()
	})
	RegisterEvaluator("aspl", func(p Params) (Evaluator, error) {
		return ASPL{}, p.Reader().Err()
	})
	RegisterEvaluator("bisection", parseBisection)
	RegisterEvaluator("packet", parsePacket)
	RegisterEvaluator("cut", parseCut)
	RegisterEvaluator("failures", parseFailures)
}

// Detail is one run's full flow result, for the decomposition and bound
// figures that need more than the scalar.
type Detail struct {
	Value float64
	G     *graph.Graph
	Res   *mcf.Result
}

// DetailedEvaluator is implemented by evaluators that can also return the
// full per-run result (currently MCF).
type DetailedEvaluator interface {
	Evaluator
	EvaluateDetailed(ctx *EvalContext) (Detail, error)
}

// MCF measures λ, the maximum concurrent flow throughput of §3, with the
// point's ε. Disconnected commodities report zero throughput rather than
// failing, exactly as the sweeps always treated them.
type MCF struct{}

func (MCF) Spec() string { return "mcf" }

func (e MCF) Evaluate(ctx *EvalContext) (float64, error) {
	d, err := e.EvaluateDetailed(ctx)
	return d.Value, err
}

func (MCF) EvaluateDetailed(ctx *EvalContext) (Detail, error) {
	opt := mcf.Options{Epsilon: ctx.Epsilon, Cancel: ctx.Cancel}
	w := ctx.Warm
	if w != nil && w.ParentLens != nil {
		// Seed the solve from the parent's witness mapped onto this run's
		// graph. A failed mapping yields nil and the solve runs cold.
		opt.WarmLens = MapArcLens(w.ParentG, ctx.G, w.ParentLens)
	}
	sp := trace.StartSpan(ctx.Ctx, "mcf.solve")
	res, err := mcf.Solve(ctx.G, ctx.TM.Flows, opt)
	solveSpan(sp, res, opt.WarmLens != nil)
	if errors.Is(err, mcf.ErrUnreachable) {
		// A disconnected instance (e.g. zero cross-cluster links) has zero
		// concurrent throughput; report it rather than failing the sweep.
		return Detail{G: ctx.G, Res: &mcf.Result{ArcFlow: make([]float64, ctx.G.NumArcs())}}, nil
	}
	if err != nil {
		return Detail{}, err
	}
	if res.WarmStarted {
		// The Fleischer (1+ε) guarantee is re-certified on every
		// warm-started solve rather than assumed: flowcheck checks capacity
		// feasibility and, against the independent-Dijkstra dual bound of
		// the exported witness, the ε-optimality gap. A solve that fails
		// certification is re-run cold — warm starts may cost a wasted
		// solve, never wrong data.
		csp := trace.StartSpan(ctx.Ctx, "warm.certify")
		rep, verr := flowcheck.Verify(ctx.G, ctx.TM.Flows, res, flowcheck.Options{})
		if verr != nil || !rep.OK() {
			csp.Attr("outcome", "fallback")
			csp.End()
			w.CertFallback = true
			opt.WarmLens = nil
			fsp := trace.StartSpan(ctx.Ctx, "mcf.solve")
			res, err = mcf.Solve(ctx.G, ctx.TM.Flows, opt)
			solveSpan(fsp, res, false)
			if err != nil {
				return Detail{}, err
			}
		} else {
			csp.Attr("outcome", "certified")
			csp.End()
			w.WarmStarted = true
		}
	}
	if w != nil {
		// Export this solve's witness so the engine can store it for the
		// point's future children (cold solves seed children too).
		w.Witness = res.DualLens
	}
	return Detail{Value: res.Throughput, G: ctx.G, Res: res}, nil
}

// solveSpan closes a solver span with the solve's phase telemetry: the
// route/solve wall clock from Result.Timing, the tree build/repair and
// bucket-vs-heap counters, and how the solve was seeded. Inert (free)
// when the span is not live.
func solveSpan(sp trace.Span, res *mcf.Result, seeded bool) {
	if !sp.OK() {
		return
	}
	if res != nil {
		sp.AttrInt("phases", int64(res.Phases))
		sp.AttrInt("route_ns", res.Timing.RouteNanos)
		sp.AttrInt("solve_ns", res.Timing.SolveNanos)
		sp.AttrInt("tree_builds", int64(res.TreeBuilds))
		sp.AttrInt("tree_repairs", int64(res.TreeRepairs))
		sp.AttrInt("bucket_builds", int64(res.BucketBuilds))
		if res.WarmStarted {
			sp.Attr("seed", "warm")
		} else if seeded {
			sp.Attr("seed", "warm-rejected")
		} else {
			sp.Attr("seed", "cold")
		}
	}
	sp.End()
}

// ASPL measures the average shortest path length of the topology (no
// traffic needed).
type ASPL struct{}

func (ASPL) Spec() string { return "aspl" }

func (ASPL) Evaluate(ctx *EvalContext) (float64, error) {
	v, _ := ctx.G.ASPL()
	return v, nil
}

// Bisection estimates the bisection bandwidth by sampled balanced min-cuts
// (maxflow.BisectionBandwidth). Trials are deterministic, so the value is
// a pure function of the topology.
type Bisection struct{ Trials int }

func (e Bisection) Spec() string { return FormatSpec("bisection", "trials", IntParam(e.Trials)) }

func (e Bisection) Evaluate(ctx *EvalContext) (float64, error) {
	return maxflow.BisectionBandwidth(ctx.G, e.Trials), nil
}

func parseBisection(p Params) (Evaluator, error) {
	r := p.Reader()
	e := Bisection{Trials: r.Int("trials", 4)}
	return e, r.Err()
}

// Packet runs the discrete-event MPTCP simulator on the workload (demand d
// expands to d parallel transport flows, matching server granularity) and
// reports mean per-flow goodput. Every simulation's per-node packet
// conservation is certified by flowcheck.VerifyPacket before the value is
// accepted.
type Packet struct {
	Subflows        int
	Warmup, Measure float64
}

func (e Packet) Spec() string {
	return FormatSpec("packet",
		"subflows", IntParam(e.Subflows),
		"warmup", FloatParam(e.Warmup), "measure", FloatParam(e.Measure))
}

func (e Packet) Evaluate(ctx *EvalContext) (float64, error) {
	var specs []packet.FlowSpec
	for _, f := range ctx.TM.Flows {
		for k := 0; k < int(f.Demand); k++ {
			specs = append(specs, packet.FlowSpec{Src: f.Src, Dst: f.Dst})
		}
	}
	res, err := packet.Simulate(ctx.G, specs, packet.Config{
		SubflowsPerFlow: e.Subflows,
		Warmup:          e.Warmup,
		Measure:         e.Measure,
	}, ctx.Rng)
	if err != nil {
		return 0, err
	}
	if err := flowcheck.VerifyPacket(ctx.G, res); err != nil {
		return 0, fmt.Errorf("scenario: packet conservation: %w", err)
	}
	return res.MeanGoodput, nil
}

func parsePacket(p Params) (Evaluator, error) {
	r := p.Reader()
	e := Packet{Subflows: r.Int("subflows", 8), Warmup: r.Float("warmup", 60), Measure: r.Float("measure", 240)}
	return e, r.Err()
}

// Cut measures the non-uniform sparsest cut for the K_{V1,V2} demand over
// the (first n1 switches | rest) partition — the Theorem 2 comparison.
type Cut struct{ N1 int }

func (e Cut) Spec() string { return FormatSpec("cut", "n1", IntParam(e.N1)) }

func (e Cut) Evaluate(ctx *EvalContext) (float64, error) {
	inV1 := make([]bool, ctx.G.N())
	for i := 0; i < e.N1 && i < ctx.G.N(); i++ {
		inV1[i] = true
	}
	return spectral.SparsestCutBipartite(ctx.G, inV1), nil
}

func parseCut(p Params) (Evaluator, error) {
	r := p.Reader()
	e := Cut{N1: r.Int("n1", 12)}
	return e, r.Err()
}

// readsTraffic reports whether ev reads the run's traffic matrix, which
// the none traffic leaves nil.
func readsTraffic(ev Evaluator) bool {
	switch e := ev.(type) {
	case MCF, Packet:
		return true
	case Failures:
		return readsTraffic(e.Inner)
	}
	return false
}

// Failures wraps any registered evaluator with the random link-failure
// model of the resilience sweeps: each run fails frac of the links
// (graph.FailRandomLinks, drawn from the run's RNG stream right after
// topology and traffic, so the failure pattern is a deterministic
// function of the point like everything else) and evaluates the inner
// metric on the degraded topology against the intact topology's traffic
// matrix. frac must lie in [0, 1]. Sweeping eval.frac yields a
// graceful-degradation curve for any topology × traffic × metric
// combination.
//
// The inner evaluator spec is embedded with '/' in place of ':' and ';'
// in place of ',' (the spec grammar reserves those), e.g.
//
//	failures:frac=0.1,eval=mcf
//	failures:frac=0.15,eval=bisection/trials=8
type Failures struct {
	Frac  float64
	Inner Evaluator
}

func (e Failures) Spec() string {
	return FormatSpec("failures",
		"frac", FloatParam(e.Frac), "eval", embedSpec(e.Inner.Spec()))
}

func (e Failures) Evaluate(ctx *EvalContext) (float64, error) {
	fg, err := ctx.G.FailRandomLinks(ctx.Rng, e.Frac)
	if err != nil {
		return 0, err
	}
	inner := *ctx
	inner.G = fg
	return e.Inner.Evaluate(&inner)
}

// ParentEvaluator makes a failure rung delta-shaped: its parent is the
// same evaluation at frac=0, which degrades nothing (FailRandomLinks at
// zero is a clone, consuming no RNG), so the parent's solved graph is
// arc-identical to the child run's intact built graph and its witness
// maps onto the failed graph by surviving-link matching.
func (e Failures) ParentEvaluator() (Evaluator, bool) {
	if e.Frac <= 0 {
		return nil, false
	}
	return Failures{Frac: 0, Inner: e.Inner}, true
}

// embedSpec/unembedSpec translate a nested evaluator spec into a form a
// single spec parameter value can carry.
func embedSpec(spec string) string {
	return strings.NewReplacer(":", "/", ",", ";").Replace(spec)
}

func unembedSpec(v string) string {
	return strings.NewReplacer("/", ":", ";", ",").Replace(v)
}

func parseFailures(p Params) (Evaluator, error) {
	r := p.Reader()
	e := Failures{Frac: r.Float("frac", 0.1)}
	innerSpec := unembedSpec(r.String("eval", "mcf"))
	if err := r.Err(); err != nil {
		return nil, err
	}
	if e.Frac < 0 || e.Frac > 1 {
		return nil, fmt.Errorf("scenario: failures frac=%s out of [0, 1]", FloatParam(e.Frac))
	}
	if kind, _, err := SplitSpec(innerSpec); err != nil {
		return nil, err
	} else if kind == "failures" {
		return nil, fmt.Errorf("scenario: failures evaluator cannot nest itself")
	}
	inner, err := ParseEvaluator(innerSpec)
	if err != nil {
		return nil, fmt.Errorf("scenario: failures inner evaluator: %w", err)
	}
	e.Inner = inner
	return e, nil
}
