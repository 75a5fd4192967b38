package scenario

import (
	"strconv"

	"repro/internal/graph"
)

// Incremental (delta) evaluation: a "what if" point — a failure ladder
// rung, an expansion step — is one small edit away from a cheaper parent
// point. When Engine.WarmStart is on, the engine derives that parent,
// obtains the parent solve's exported dual witness (mcf.Result.DualLens,
// stored per run as an ordinary content-addressed cache entry, so it
// flows through memory, or disk → remote, exactly like results), maps it
// onto the child's arcs, and seeds the child solve with it. Every
// warm-started solve is re-certified by internal/flowcheck before its
// value is accepted; a failed certification falls back to a cold solve —
// the degradation ladder's "never wrong data" rule, extended to warm
// starts.

// WarmExchange is the per-run warm-start exchange threaded through
// EvalContext.Warm. The engine fills the parent side before the run;
// delta-aware evaluators (currently MCF, reached directly or through the
// Failures wrapper) consume it and report the solve's own witness back.
type WarmExchange struct {
	// ParentG is the graph the parent solve ran on; ParentLens is its
	// witness, indexed on ParentG's arcs. Both nil when no parent
	// information is available — the run solves cold.
	ParentG    *graph.Graph
	ParentLens []float64

	// Witness is the run's own exported dual witness (mcf.Result.DualLens
	// on the solved graph), set by the evaluator for the engine to store —
	// the seed for this point's future children. Set for cold solves too.
	Witness []float64
	// WarmStarted reports that the solve was warm-seeded AND passed
	// flowcheck certification; CertFallback that a warm solve failed
	// certification and was re-solved cold.
	WarmStarted  bool
	CertFallback bool
}

// DeltaTopology is implemented by topologies whose instances are one
// incremental step away from a cheaper parent instance sharing the same
// RNG-stream prefix (so run i of the parent point builds a graph the
// child's run i physically contains or extends).
type DeltaTopology interface {
	Topology
	// ParentTopology returns the one-step-smaller topology, or false when
	// this instance is already the base of its family.
	ParentTopology() (Topology, bool)
}

// DeltaEvaluator is implemented by evaluator wrappers whose measurement
// degrades a parent measurement (currently the failures wrapper, whose
// parent is the same evaluation at frac=0 — the intact graph).
type DeltaEvaluator interface {
	Evaluator
	// ParentEvaluator returns the undegraded evaluator, or false when this
	// instance already is the base case.
	ParentEvaluator() (Evaluator, bool)
}

// ParentPoint derives the parent point of a delta-shaped point: the same
// point with the evaluator's base case (failures at frac=0) or, failing
// that, the topology one step back (expand at steps−1). Seed, seed
// factor, run count, ε, and traffic are inherited, so run i of the parent
// shares the child's run-i RNG stream prefix — the property that makes
// the parent's graph (and therefore its witness) mappable onto the
// child's. ok=false means the point has no derivable parent and always
// solves cold.
func ParentPoint(p Point) (Point, bool) {
	pp, _, ok := parentPoint(p)
	return pp, ok
}

// parentKind distinguishes how the parent graph of run i is obtained:
// for an evaluator delta the parent solved (a clone of) the run's own
// built graph; for a topology delta the parent topology must be rebuilt
// on the run's RNG stream.
type parentKind int

const (
	deltaEval parentKind = iota + 1
	deltaTopo
)

func parentPoint(p Point) (Point, parentKind, bool) {
	if de, ok := p.Eval.(DeltaEvaluator); ok {
		if pe, ok := de.ParentEvaluator(); ok {
			pp := p
			pp.Eval = pe
			return pp, deltaEval, true
		}
	}
	if dt, ok := p.Topo.(DeltaTopology); ok {
		if pt, ok := dt.ParentTopology(); ok {
			pp := p
			pp.Topo = pt
			return pp, deltaTopo, true
		}
	}
	return Point{}, 0, false
}

// WitnessKey is the cache key of run i's dual witness for the point with
// the given result key. Witness entries are ordinary content-addressed
// entries — same hashing, same tiers, same TBRS byte-exactness — so a
// witness loaded from memory, disk, or a peer replica is bit-identical
// and warm-started solves are byte-deterministic regardless of where the
// parent came from.
func WitnessKey(pointKey string, run int) string {
	return "witness|" + pointKey + "|run=" + strconv.Itoa(run)
}

// MapArcLens transfers a per-arc length function from a parent graph onto
// a child graph that shares its link structure up to one incremental edit
// (links removed by failures; links removed and added by an expansion
// step). Links are matched by endpoint pair in link order — exactly the
// order graph.WithoutLinks and rrg.ExpandWithSwitch preserve — with
// parallel links consumed first-to-first. Child arcs with no parent
// counterpart get 0, which the solver treats as "no information". Returns
// nil when nothing matched (or the witness length is wrong), meaning the
// caller should solve cold.
func MapArcLens(parent, child *graph.Graph, plens []float64) []float64 {
	if parent == nil || child == nil || len(plens) != parent.NumArcs() {
		return nil
	}
	type ends struct{ u, v int }
	queues := make(map[ends][]int32, parent.NumLinks())
	for id := 0; id < parent.NumLinks(); id++ {
		u, v := parent.LinkEnds(id)
		queues[ends{u, v}] = append(queues[ends{u, v}], int32(id))
	}
	out := make([]float64, child.NumArcs())
	matched := 0
	for id := 0; id < child.NumLinks(); id++ {
		u, v := child.LinkEnds(id)
		if q := queues[ends{u, v}]; len(q) > 0 {
			pid := int(q[0])
			queues[ends{u, v}] = q[1:]
			out[2*id] = plens[2*pid]
			out[2*id+1] = plens[2*pid+1]
			matched++
			continue
		}
		// Opposite orientation: the parent stored this link as (v, u), so
		// its forward arc corresponds to the child's reverse arc.
		if q := queues[ends{v, u}]; len(q) > 0 {
			pid := int(q[0])
			queues[ends{v, u}] = q[1:]
			out[2*id] = plens[2*pid+1]
			out[2*id+1] = plens[2*pid]
			matched++
		}
	}
	if matched == 0 {
		return nil
	}
	return out
}
