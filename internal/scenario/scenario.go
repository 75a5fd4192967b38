// Package scenario is the unified scenario engine: it turns the repo from
// a fixed set of figure regenerators into a general topology-evaluation
// system. A scenario is a (Topology, Traffic, Evaluator) triple; each side
// comes from a string-keyed registry, so any combination — including ones
// no paper figure exercises — can be described by a spec string, swept over
// a declarative Grid, executed on the internal/runner pool with the
// byte-identical serial/parallel guarantee, and memoized in a
// content-addressed solve cache.
//
// # Spec grammar
//
// Every registry entry is addressed as
//
//	kind[:key=value,key=value,...]
//
// e.g. "rrg:n=40,deg=10,sps=5", "permutation", "chunky:frac=0.6",
// "packet:subflows=4,warmup=40,measure=160". Unknown kinds and unknown or
// malformed parameters are errors. Parsing is canonicalizing: the Spec()
// of a parsed scenario prints every parameter (defaults resolved) in a
// fixed order, so Parse(x).Spec() is a fixed point — the registry
// round-trip property the tests pin — and equal specs mean equal build
// behavior.
//
// A full scenario line, as consumed by `topobench -scenario`, combines the
// three registries with sweep axes and run controls:
//
//	topo=rrg:n=400,deg=10,sps=5 traffic=permutation eval=mcf sweep=deg:4..16
//
// (see Grid and ParseGrid). Grid lines arrive over HTTP, so their size is
// bounded before anything is materialized: a grid expands to at most
// MaxGridRuns point-runs (points × runs), and ε must lie in [0, 0.5).
//
// # Cache key invariant
//
// The solve cache (Cache) is content-addressed: a point's key is the hash
// of (topology spec, traffic spec, evaluator spec, ε, seed, seed factor,
// run count) — exactly the inputs that determine the evaluation. Every
// Topology/Traffic/Evaluator implementation MUST encode all build inputs
// in its Spec(): two instances with equal specs must consume their RNG
// streams identically and produce identical results. Under that invariant
// a cache hit returns the same bytes a cold solve would, so figures and
// sweeps sharing instances never re-solve and cached output is
// indistinguishable from fresh output (enforced by the cache tests).
//
// # Adding a new topology, traffic, or evaluator
//
// Implement the interface, give it a canonical Spec(), and register a
// parser in an init():
//
//	scenario.RegisterTopology("mytopo", func(p scenario.Params) (scenario.Topology, error) {
//	    r := p.Reader()
//	    n := r.Int("n", 40)
//	    if err := r.Err(); err != nil { return nil, err }
//	    return &myTopo{n: n}, nil
//	})
//
// The entry is then immediately usable from Grid specs, the experiment
// layer, and topobench -scenario.
package scenario

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// Topology builds one network instance. Build must keep all randomness on
// the supplied RNG and must consume the stream identically for equal
// Spec() strings (the cache key invariant).
type Topology interface {
	// Spec returns the canonical registry spec, e.g. "rrg:n=40,deg=10,sps=5".
	Spec() string
	Build(rng *rand.Rand) (*graph.Graph, error)
}

// Traffic generates a workload for a built topology.
type Traffic interface {
	Spec() string
	// Matrix derives the switch-level commodities. Implementations that
	// operate on servers derive placements via traffic.HostsOf(g).
	Matrix(rng *rand.Rand, g *graph.Graph) (*traffic.Matrix, error)
}

// Evaluator measures one scalar of a (topology, traffic) instance.
type Evaluator interface {
	Spec() string
	Evaluate(ctx *EvalContext) (float64, error)
}

// EvalContext is the per-run input handed to an Evaluator.
type EvalContext struct {
	G *graph.Graph
	// TM is nil when the point's traffic is "none".
	TM *traffic.Matrix
	// Rng continues the run's RNG stream (topology and traffic draws
	// already consumed), for evaluators with internal randomness (packet).
	Rng *rand.Rand
	// Epsilon is the flow-solver approximation parameter of the point.
	Epsilon float64
	// Cancel, when non-nil, is closed to abort the evaluation (typically a
	// request context's Done channel threaded through the engine).
	// Long-running evaluators should poll it at natural checkpoints and
	// return the cancellation as an error; cancellation may abort a run,
	// never change a completed run's value.
	Cancel <-chan struct{}
	// Warm, when non-nil, is the warm-start exchange between the engine
	// and delta-aware evaluators (see WarmExchange). Wrapper evaluators
	// copy EvalContext by value, so the pointer travels into nested
	// contexts and the innermost solve reports back through it.
	Warm *WarmExchange
	// Ctx is the run's request context, carried for observability only:
	// evaluators use it to record trace spans (internal/trace) around
	// their solves. It may be nil; cancellation still travels via Cancel,
	// never via Ctx, so evaluator behavior cannot depend on it.
	Ctx context.Context
}

// ---- registries ----

var (
	topoRegistry    = map[string]func(Params) (Topology, error){}
	trafficRegistry = map[string]func(Params) (Traffic, error){}
	evalRegistry    = map[string]func(Params) (Evaluator, error){}
)

// RegisterTopology adds a topology kind to the registry. Registering a
// duplicate kind panics: registries are wired in init() and a collision is
// a programming error.
func RegisterTopology(kind string, parse func(Params) (Topology, error)) {
	if _, dup := topoRegistry[kind]; dup {
		panic("scenario: duplicate topology kind " + kind)
	}
	topoRegistry[kind] = parse
}

// RegisterTraffic adds a traffic kind to the registry.
func RegisterTraffic(kind string, parse func(Params) (Traffic, error)) {
	if _, dup := trafficRegistry[kind]; dup {
		panic("scenario: duplicate traffic kind " + kind)
	}
	trafficRegistry[kind] = parse
}

// RegisterEvaluator adds an evaluator kind to the registry.
func RegisterEvaluator(kind string, parse func(Params) (Evaluator, error)) {
	if _, dup := evalRegistry[kind]; dup {
		panic("scenario: duplicate evaluator kind " + kind)
	}
	evalRegistry[kind] = parse
}

// ParseTopology resolves a topology spec string against the registry.
func ParseTopology(spec string) (Topology, error) {
	kind, params, err := SplitSpec(spec)
	if err != nil {
		return nil, err
	}
	parse, ok := topoRegistry[kind]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown topology %q (have %s)", kind, strings.Join(TopologyKinds(), ", "))
	}
	return parse(params)
}

// ParseTraffic resolves a traffic spec string against the registry.
func ParseTraffic(spec string) (Traffic, error) {
	kind, params, err := SplitSpec(spec)
	if err != nil {
		return nil, err
	}
	parse, ok := trafficRegistry[kind]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown traffic %q (have %s)", kind, strings.Join(TrafficKinds(), ", "))
	}
	return parse(params)
}

// ParseEvaluator resolves an evaluator spec string against the registry.
func ParseEvaluator(spec string) (Evaluator, error) {
	kind, params, err := SplitSpec(spec)
	if err != nil {
		return nil, err
	}
	parse, ok := evalRegistry[kind]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown evaluator %q (have %s)", kind, strings.Join(EvaluatorKinds(), ", "))
	}
	return parse(params)
}

// TopologyKinds lists the registered topology kinds, sorted.
func TopologyKinds() []string { return sortedKeys(topoRegistry) }

// TrafficKinds lists the registered traffic kinds, sorted.
func TrafficKinds() []string { return sortedKeys(trafficRegistry) }

// EvaluatorKinds lists the registered evaluator kinds, sorted.
func EvaluatorKinds() []string { return sortedKeys(evalRegistry) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- spec strings and parameters ----

// Params holds the key=value parameters of one spec.
type Params map[string]string

// SplitSpec splits "kind:k=v,k=v" into its kind and parameters.
func SplitSpec(spec string) (string, Params, error) {
	spec = strings.TrimSpace(spec)
	kind, rest, has := strings.Cut(spec, ":")
	if kind == "" {
		return "", nil, fmt.Errorf("scenario: empty spec %q", spec)
	}
	p := Params{}
	if has {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || k == "" {
				return "", nil, fmt.Errorf("scenario: bad parameter %q in spec %q (want key=value)", kv, spec)
			}
			if _, dup := p[k]; dup {
				return "", nil, fmt.Errorf("scenario: duplicate parameter %q in spec %q", k, spec)
			}
			p[k] = v
		}
	}
	return kind, p, nil
}

// FormatSpec assembles a canonical spec string: the kind plus every
// key=value pair in the given order. Use FloatParam for float values so
// equal numbers always print identically.
func FormatSpec(kind string, kv ...string) string {
	if len(kv)%2 != 0 {
		panic("scenario: FormatSpec needs key/value pairs")
	}
	if len(kv) == 0 {
		return kind
	}
	var b strings.Builder
	b.WriteString(kind)
	for i := 0; i < len(kv); i += 2 {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	return b.String()
}

// FloatParam formats a float for a canonical spec (shortest round-trip
// form, so 0.6 prints as "0.6" and 2 as "2").
func FloatParam(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// IntParam formats an int for a canonical spec.
func IntParam(v int) string { return strconv.Itoa(v) }

// Reader returns a consuming reader over the params: typed accessors with
// defaults, error accumulation, and unknown-key detection via Err.
func (p Params) Reader() *ParamReader {
	return &ParamReader{params: p, used: map[string]bool{}}
}

// ParamReader reads typed parameters out of a Params map. All accessors
// record malformed values; Err additionally rejects parameters that were
// never read (catching typos like "dge=10").
type ParamReader struct {
	params Params
	used   map[string]bool
	errs   []string
}

func (r *ParamReader) lookup(key string) (string, bool) {
	r.used[key] = true
	v, ok := r.params[key]
	return v, ok
}

// String reads a raw string parameter, with a default when absent.
func (r *ParamReader) String(key, def string) string {
	s, ok := r.lookup(key)
	if !ok {
		return def
	}
	return s
}

// Int reads an integer parameter, with a default when absent.
func (r *ParamReader) Int(key string, def int) int {
	s, ok := r.lookup(key)
	if !ok {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		r.errs = append(r.errs, fmt.Sprintf("%s=%q is not an integer", key, s))
		return def
	}
	return v
}

// count reads a size parameter (a node, degree, link or server count),
// rejecting a negative value.
func (r *ParamReader) count(key string, def int) int {
	v := r.Int(key, def)
	if v < 0 {
		r.errs = append(r.errs, fmt.Sprintf("%s=%d is negative", key, v))
		return def
	}
	return v
}

// Int64 reads an int64 parameter, with a default when absent.
func (r *ParamReader) Int64(key string, def int64) int64 {
	s, ok := r.lookup(key)
	if !ok {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		r.errs = append(r.errs, fmt.Sprintf("%s=%q is not an integer", key, s))
		return def
	}
	return v
}

// Float reads a finite float parameter, with a default when absent. NaN
// and ±Inf are malformed for every kind: no parameter means an infinity,
// and NaN slips through any range check, since all its comparisons are
// false.
func (r *ParamReader) Float(key string, def float64) float64 {
	s, ok := r.lookup(key)
	if !ok {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		r.errs = append(r.errs, fmt.Sprintf("%s=%q is not a finite number", key, s))
		return def
	}
	return v
}

// Err reports accumulated value errors plus any parameters never read.
func (r *ParamReader) Err() error {
	var unknown []string
	for k := range r.params {
		if !r.used[k] {
			unknown = append(unknown, k)
		}
	}
	sort.Strings(unknown)
	errs := r.errs
	if len(unknown) > 0 {
		errs = append(errs, "unknown parameter(s) "+strings.Join(unknown, ", "))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("scenario: %s", strings.Join(errs, "; "))
}
