// Package flowcheck is an independent verifier for the flows emitted by
// the internal/mcf solver. The paper's throughput comparisons are only as
// trustworthy as the solver, and the solver has accumulated aggressive
// optimizations (early stopping, persistent trees, incremental repair);
// flowcheck replays the claims from first principles, sharing none of the
// solver's hot-path machinery:
//
//   - decomposition: the recorded path decomposition is structurally a
//     flow — every path runs contiguously from its commodity's source to
//     its destination with positive volume, and the per-arc sums
//     reconstruct Result.ArcFlow.
//   - conservation: per-node net flow of ArcFlow equals the commodity
//     volumes entering/leaving that node (zero at transit nodes).
//   - capacity: no arc carries more than its capacity after the solver's
//     congestion scaling.
//   - demand: every commodity receives at least Throughput·demand —
//     concurrent-flow proportionality.
//   - optimality: the ε-gap. Result.DualLens is a length-function witness;
//     weak duality gives λ* ≤ Σ l·cap / Σ demand·dist_l for ANY
//     non-negative lengths l, so the verifier recomputes both sides with
//     its own from-scratch Dijkstra and checks the claimed throughput is
//     within the tolerated gap of that bound. The witness comes from the
//     solver, but its validity does not depend on the solver being
//     correct.
//
// The first four checks need Result.Paths, i.e. a solve with
// Options.RecordPaths set; without it they are reported as skipped.
//
// VerifyPacket certifies the packet simulator's measurement-window output
// (packet.Audit): exact per-node packet conservation, per-arc line-rate
// sanity, and goodput/delivered consistency.
//
// Every product that feeds a sum is wrapped in an explicit float64
// conversion. The conversion rounds the product, so no CPU fuses it into
// a multiply-add, and every check sums the same bits on every
// architecture.
package flowcheck

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/packet"
	"repro/internal/traffic"
)

// Options tunes the verifier's tolerances.
type Options struct {
	// Tolerance is the relative numerical slack for flow arithmetic
	// (conservation, capacity, decomposition sums). Default 1e-6: the
	// verifier re-sums volumes in a different order than the solver
	// accumulated them, so exact equality is not expected.
	Tolerance float64
	// GapTolerance is the accepted relative optimality gap against the
	// dual bound. Default 3·Result.Epsilon, the classical Garg–Könemann
	// guarantee against the best per-phase dual bound (whose length
	// snapshot is the exported witness). Solves that end on the early
	// primal-dual certificate typically show ≤ 1.5ε.
	GapTolerance float64
}

// Check is one verified invariant.
type Check struct {
	Name    string
	Pass    bool
	Skipped bool // true when the needed inputs were absent (no Paths)
	Detail  string
}

// Report is the structured result of a verification.
type Report struct {
	Checks     []Check
	Throughput float64
	// DualBound is the independently recomputed upper bound on the optimum
	// λ*, and Gap is 1 − Throughput/DualBound (0 when no flows).
	DualBound float64
	Gap       float64
	// PathCount is the number of decomposition paths examined.
	PathCount int
}

// OK reports whether every non-skipped check passed.
func (r *Report) OK() bool {
	for _, c := range r.Checks {
		if !c.Skipped && !c.Pass {
			return false
		}
	}
	return true
}

// Err returns nil when OK, else an error naming the failed checks.
func (r *Report) Err() error {
	var failed []string
	for _, c := range r.Checks {
		if !c.Skipped && !c.Pass {
			failed = append(failed, c.Name)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("flowcheck: failed checks: %s", strings.Join(failed, ", "))
}

// String renders the report for humans (test failure messages print it).
func (r *Report) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "flowcheck: %s (λ=%.6g, dual bound %.6g, gap %.2f%%, %d paths)\n",
		verdict, r.Throughput, r.DualBound, 100*r.Gap, r.PathCount)
	for _, c := range r.Checks {
		state := "ok"
		switch {
		case c.Skipped:
			state = "skipped"
		case !c.Pass:
			state = "FAIL"
		}
		fmt.Fprintf(&b, "  %-13s %-7s %s\n", c.Name+":", state, c.Detail)
	}
	return b.String()
}

// Verify certifies res as a solution of the maximum concurrent flow
// instance (g, flows). It returns an error only for structurally unusable
// input (shape mismatches); violations of the flow invariants are reported
// as failed checks.
func Verify(g *graph.Graph, flows []traffic.Flow, res *mcf.Result, opt Options) (*Report, error) {
	if res == nil {
		return nil, fmt.Errorf("flowcheck: nil result")
	}
	m := g.NumArcs()
	if len(res.ArcFlow) != m && len(res.ArcFlow) != 0 {
		return nil, fmt.Errorf("flowcheck: ArcFlow has %d arcs, graph has %d", len(res.ArcFlow), m)
	}
	if len(res.DualLens) != 0 && len(res.DualLens) != m {
		return nil, fmt.Errorf("flowcheck: DualLens has %d arcs, graph has %d", len(res.DualLens), m)
	}
	tol := opt.Tolerance
	if tol <= 0 {
		tol = 1e-6
	}
	gapTol := opt.GapTolerance
	if gapTol <= 0 {
		gapTol = 3 * res.Epsilon
	}
	if gapTol <= 0 {
		gapTol = 3 * mcf.DefaultEpsilon
	}

	r := &Report{Throughput: res.Throughput, PathCount: len(res.Paths)}
	if len(flows) == 0 {
		r.Checks = append(r.Checks, Check{Name: "instance", Pass: true,
			Detail: "no commodities; infinite throughput is trivially optimal"})
		return r, nil
	}

	vol := pathChecks(g, flows, res, tol, r)
	conservationCheck(g, flows, res, vol, tol, r)
	capacityCheck(g, res, tol, r)
	demandCheck(flows, res, vol, tol, r)
	optimalityCheck(g, flows, res, gapTol, r)
	return r, nil
}

// VerifyPacket certifies a packet simulation's measurement-window
// accounting (see packet.Audit) from first principles:
//
//   - conservation: for every node, injected + arrived-over-incoming-arcs
//     equals delivered + next-hop-attempts (admissions plus drops) —
//     exactly, in integers; the simulator cannot teleport, duplicate, or
//     silently absorb packets.
//   - line rate: no arc completed more transmissions than its capacity
//     admits in the window (rate·measure, plus one transmission that may
//     straddle the window start).
//   - goodput: every flow's reported goodput equals its delivered count
//     over the window, per-node delivered totals match the flow sums, and
//     Delivered/MeanGoodput/MinGoodput are consistent re-aggregations.
//
// Violations are reported as failed checks, matching Verify's contract.
// An error is returned only for structurally unusable input.
func VerifyPacket(g *graph.Graph, res *packet.Result) error {
	r, err := VerifyPacketReport(g, res)
	if err != nil {
		return err
	}
	return r.Err()
}

// VerifyPacketReport is VerifyPacket returning the full check report.
func VerifyPacketReport(g *graph.Graph, res *packet.Result) (*Report, error) {
	if res == nil {
		return nil, fmt.Errorf("flowcheck: nil packet result")
	}
	r := &Report{Throughput: res.MeanGoodput}
	if res.Audit == nil {
		if len(res.Flows) == 0 && res.Delivered == 0 {
			r.Checks = append(r.Checks, Check{Name: "instance", Pass: true,
				Detail: "empty simulation; nothing to conserve"})
			return r, nil
		}
		return nil, fmt.Errorf("flowcheck: packet result carries no audit")
	}
	a := res.Audit
	m, n := g.NumArcs(), g.N()
	if len(a.ArcEnqueued) != m || len(a.ArcDropped) != m || len(a.ArcTransits) != m {
		return nil, fmt.Errorf("flowcheck: audit arc counters sized %d/%d/%d, graph has %d arcs",
			len(a.ArcEnqueued), len(a.ArcDropped), len(a.ArcTransits), m)
	}
	if len(a.NodeInjected) != n || len(a.NodeDelivered) != n {
		return nil, fmt.Errorf("flowcheck: audit node counters sized %d/%d, graph has %d nodes",
			len(a.NodeInjected), len(a.NodeDelivered), n)
	}
	if a.Measure <= 0 {
		return nil, fmt.Errorf("flowcheck: audit measurement window %v", a.Measure)
	}

	// Counter sanity: event counts are non-negative by construction.
	negative := -1
	for i := 0; i < m && negative < 0; i++ {
		if a.ArcEnqueued[i] < 0 || a.ArcDropped[i] < 0 || a.ArcTransits[i] < 0 {
			negative = i
		}
	}
	for v := 0; v < n && negative < 0; v++ {
		if a.NodeInjected[v] < 0 || a.NodeDelivered[v] < 0 {
			negative = v
		}
	}
	if negative >= 0 {
		r.Checks = append(r.Checks, Check{Name: "counters",
			Detail: fmt.Sprintf("negative event count at index %d", negative)})
		return r, nil
	}
	r.Checks = append(r.Checks, Check{Name: "counters", Pass: true,
		Detail: fmt.Sprintf("%d arc and %d node counters non-negative", m, n)})

	// Exact per-node conservation of the event counts.
	worst, worstNode := int64(0), -1
	for v := 0; v < n; v++ {
		balance := a.NodeInjected[v] - a.NodeDelivered[v]
		for _, arc := range g.OutArcs(v) {
			balance -= a.ArcEnqueued[arc] + a.ArcDropped[arc]
			// The reverse arc of every out-arc points into v.
			balance += a.ArcTransits[graph.Reverse(int(arc))]
		}
		if d := balance; d != 0 {
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst, worstNode = d, v
			}
		}
	}
	if worstNode >= 0 {
		r.Checks = append(r.Checks, Check{Name: "conservation",
			Detail: fmt.Sprintf("node %d imbalanced by %d packets", worstNode, worst)})
	} else {
		r.Checks = append(r.Checks, Check{Name: "conservation", Pass: true,
			Detail: fmt.Sprintf("all %d nodes balance exactly", n)})
	}

	// Line-rate sanity: an arc of capacity c serializes one packet per 1/c,
	// so the window admits at most c·measure completions plus one
	// transmission already in flight when the window opened.
	rateBad := -1
	for arc := 0; arc < m; arc++ {
		limit := float64(g.Arc(arc).Cap*a.Measure*(1+1e-9)) + 1
		if float64(a.ArcTransits[arc]) > limit {
			rateBad = arc
			break
		}
	}
	if rateBad >= 0 {
		r.Checks = append(r.Checks, Check{Name: "linerate",
			Detail: fmt.Sprintf("arc %d completed %d transmissions, capacity admits %.0f",
				rateBad, a.ArcTransits[rateBad], float64(g.Arc(rateBad).Cap*a.Measure)+1)})
	} else {
		r.Checks = append(r.Checks, Check{Name: "linerate", Pass: true,
			Detail: "no arc outran its capacity"})
	}

	// Goodput consistency: flow goodputs are delivered/measure; their node
	// and global sums must match the audit and summary fields.
	perNode := make([]float64, n)
	var total, mean, minG float64
	minG = math.Inf(1)
	goodputBad := ""
	for _, f := range res.Flows {
		if f.Goodput < 0 || math.IsNaN(f.Goodput) || math.IsInf(f.Goodput, 0) {
			goodputBad = fmt.Sprintf("flow %d->%d reports invalid goodput %v", f.Src, f.Dst, f.Goodput)
			break
		}
		if f.Dst < 0 || f.Dst >= n {
			goodputBad = fmt.Sprintf("flow destination %d out of range", f.Dst)
			break
		}
		perNode[f.Dst] += float64(f.Goodput * a.Measure)
		total += float64(f.Goodput * a.Measure)
		mean += f.Goodput
		if f.Goodput < minG {
			minG = f.Goodput
		}
	}
	const tol = 1e-6
	if goodputBad == "" {
		for v := 0; v < n; v++ {
			if math.Abs(perNode[v]-float64(a.NodeDelivered[v])) > tol*(1+float64(a.NodeDelivered[v])) {
				goodputBad = fmt.Sprintf("node %d: flow goodputs sum to %.3f delivered packets, audit counted %d",
					v, perNode[v], a.NodeDelivered[v])
				break
			}
		}
	}
	if goodputBad == "" && math.Abs(total-float64(res.Delivered)) > tol*(1+float64(res.Delivered)) {
		goodputBad = fmt.Sprintf("goodputs sum to %.3f delivered packets, result reports %d", total, res.Delivered)
	}
	if goodputBad == "" && len(res.Flows) > 0 {
		if math.Abs(mean/float64(len(res.Flows))-res.MeanGoodput) > tol*(1+res.MeanGoodput) {
			goodputBad = fmt.Sprintf("mean goodput %.6g inconsistent with flows (%.6g)",
				res.MeanGoodput, mean/float64(len(res.Flows)))
		} else if math.Abs(minG-res.MinGoodput) > tol*(1+res.MinGoodput) {
			goodputBad = fmt.Sprintf("min goodput %.6g inconsistent with flows (%.6g)", res.MinGoodput, minG)
		}
	}
	if goodputBad != "" {
		r.Checks = append(r.Checks, Check{Name: "goodput", Detail: goodputBad})
	} else {
		r.Checks = append(r.Checks, Check{Name: "goodput", Pass: true,
			Detail: fmt.Sprintf("%d flow goodputs re-aggregate to the audit counts", len(res.Flows))})
	}
	return r, nil
}

// pathChecks validates the structural flow decomposition and returns the
// per-commodity delivered volume (nil when no decomposition was recorded).
func pathChecks(g *graph.Graph, flows []traffic.Flow, res *mcf.Result, tol float64, r *Report) []float64 {
	if len(res.Paths) == 0 {
		r.Checks = append(r.Checks, Check{Name: "decomposition", Skipped: true,
			Detail: "no path decomposition (solve without RecordPaths)"})
		return nil
	}
	vol := make([]float64, len(flows))
	fromPaths := make([]float64, g.NumArcs())
	for i, p := range res.Paths {
		if p.Commodity < 0 || p.Commodity >= len(flows) {
			r.Checks = append(r.Checks, Check{Name: "decomposition",
				Detail: fmt.Sprintf("path %d references commodity %d of %d", i, p.Commodity, len(flows))})
			return nil
		}
		if p.Flow <= 0 || math.IsNaN(p.Flow) {
			r.Checks = append(r.Checks, Check{Name: "decomposition",
				Detail: fmt.Sprintf("path %d has non-positive flow %v", i, p.Flow)})
			return nil
		}
		f := flows[p.Commodity]
		at := f.Src
		for _, a := range p.Arcs {
			if a < 0 || int(a) >= g.NumArcs() || int(g.Arc(int(a)).From) != at {
				r.Checks = append(r.Checks, Check{Name: "decomposition",
					Detail: fmt.Sprintf("path %d (commodity %d) is not contiguous at node %d", i, p.Commodity, at)})
				return nil
			}
			fromPaths[a] += p.Flow
			at = int(g.Arc(int(a)).To)
		}
		if at != f.Dst {
			r.Checks = append(r.Checks, Check{Name: "decomposition",
				Detail: fmt.Sprintf("path %d ends at %d, commodity %d ends at %d", i, at, p.Commodity, f.Dst)})
			return nil
		}
		vol[p.Commodity] += p.Flow
	}
	// The decomposition must reconstruct the reported per-arc flow. A
	// result with paths but no ArcFlow is compared against zero flow (and
	// so fails unless the paths are empty too), rather than panicking.
	arcFlow := res.ArcFlow
	if len(arcFlow) == 0 {
		arcFlow = make([]float64, g.NumArcs())
	}
	worst, worstArc := 0.0, -1
	for a := range fromPaths {
		d := math.Abs(fromPaths[a] - arcFlow[a])
		if rel := d / math.Max(1, math.Abs(arcFlow[a])); rel > worst {
			worst, worstArc = rel, a
		}
	}
	if worst > tol {
		r.Checks = append(r.Checks, Check{Name: "decomposition",
			Detail: fmt.Sprintf("path sums diverge from ArcFlow by %.3g (rel) at arc %d", worst, worstArc)})
		return nil
	}
	r.Checks = append(r.Checks, Check{Name: "decomposition", Pass: true,
		Detail: fmt.Sprintf("%d paths, max ArcFlow mismatch %.2g (rel)", len(res.Paths), worst)})
	return vol
}

// conservationCheck verifies per-node balance of ArcFlow: net outflow at a
// node equals (volume sourced here) − (volume sunk here).
func conservationCheck(g *graph.Graph, flows []traffic.Flow, res *mcf.Result, vol []float64, tol float64, r *Report) {
	if vol == nil {
		r.Checks = append(r.Checks, Check{Name: "conservation", Skipped: true,
			Detail: "needs the path decomposition for per-node commodity volumes"})
		return
	}
	net := make([]float64, g.N())
	var scale float64 = 1
	for a := 0; a < g.NumArcs() && a < len(res.ArcFlow); a++ {
		arc := g.Arc(a)
		net[arc.From] += res.ArcFlow[a]
		net[arc.To] -= res.ArcFlow[a]
		if res.ArcFlow[a] > scale {
			scale = res.ArcFlow[a]
		}
	}
	for j, f := range flows {
		net[f.Src] -= vol[j]
		net[f.Dst] += vol[j]
	}
	worst, worstNode := 0.0, -1
	for v, b := range net {
		if d := math.Abs(b); d > worst {
			worst, worstNode = d, v
		}
	}
	if worst > tol*scale*float64(g.N()) {
		r.Checks = append(r.Checks, Check{Name: "conservation",
			Detail: fmt.Sprintf("node %d imbalanced by %.3g", worstNode, worst)})
		return
	}
	r.Checks = append(r.Checks, Check{Name: "conservation", Pass: true,
		Detail: fmt.Sprintf("max node imbalance %.2g", worst)})
}

// capacityCheck verifies no arc exceeds its capacity.
func capacityCheck(g *graph.Graph, res *mcf.Result, tol float64, r *Report) {
	if len(res.ArcFlow) == 0 {
		r.Checks = append(r.Checks, Check{Name: "capacity", Pass: true, Detail: "zero flow"})
		return
	}
	worst, worstArc := 0.0, -1
	for a := 0; a < g.NumArcs(); a++ {
		if u := res.ArcFlow[a] / g.Arc(a).Cap; u > worst {
			worst, worstArc = u, a
		}
	}
	if worst > 1+tol {
		r.Checks = append(r.Checks, Check{Name: "capacity",
			Detail: fmt.Sprintf("arc %d overloaded: utilization %.9f", worstArc, worst)})
		return
	}
	r.Checks = append(r.Checks, Check{Name: "capacity", Pass: true,
		Detail: fmt.Sprintf("max utilization %.6f", worst)})
}

// demandCheck verifies concurrent-flow proportionality: every commodity
// receives at least Throughput·demand.
func demandCheck(flows []traffic.Flow, res *mcf.Result, vol []float64, tol float64, r *Report) {
	if vol == nil {
		r.Checks = append(r.Checks, Check{Name: "demand", Skipped: true,
			Detail: "needs the path decomposition for per-commodity volumes"})
		return
	}
	minFrac, minJ := math.Inf(1), -1
	for j, f := range flows {
		if fr := vol[j] / f.Demand; fr < minFrac {
			minFrac, minJ = fr, j
		}
	}
	if minFrac < res.Throughput*(1-tol) {
		r.Checks = append(r.Checks, Check{Name: "demand",
			Detail: fmt.Sprintf("commodity %d delivered %.6g of demand, below λ=%.6g", minJ, minFrac, res.Throughput)})
		return
	}
	r.Checks = append(r.Checks, Check{Name: "demand", Pass: true,
		Detail: fmt.Sprintf("min delivered fraction %.6g ≥ λ=%.6g", minFrac, res.Throughput)})
}

// optimalityCheck recomputes the dual bound λ* ≤ Σ l·cap / Σ d·dist_l from
// the length witness with an independent Dijkstra and verifies the ε-gap.
func optimalityCheck(g *graph.Graph, flows []traffic.Flow, res *mcf.Result, gapTol float64, r *Report) {
	if len(res.DualLens) == 0 {
		r.Checks = append(r.Checks, Check{Name: "optimality", Skipped: true,
			Detail: "no dual length witness"})
		return
	}
	var lenCap float64
	for a := 0; a < g.NumArcs(); a++ {
		l := res.DualLens[a]
		if l < 0 || math.IsNaN(l) {
			r.Checks = append(r.Checks, Check{Name: "optimality",
				Detail: fmt.Sprintf("invalid witness length %v on arc %d", l, a)})
			return
		}
		lenCap += float64(l * g.Arc(a).Cap)
	}
	bySrc := map[int][]int{}
	for j, f := range flows {
		bySrc[f.Src] = append(bySrc[f.Src], j)
	}
	var alpha float64
	for src, js := range bySrc {
		dist, _ := g.Dijkstra(src, res.DualLens)
		for _, j := range js {
			d := dist[flows[j].Dst]
			if math.IsInf(d, 1) {
				r.Checks = append(r.Checks, Check{Name: "optimality",
					Detail: fmt.Sprintf("commodity %d unreachable under witness lengths", j)})
				return
			}
			alpha += float64(flows[j].Demand * d)
		}
	}
	if alpha <= 0 {
		r.Checks = append(r.Checks, Check{Name: "optimality",
			Detail: "degenerate dual normalizer (α ≤ 0)"})
		return
	}
	r.DualBound = lenCap / alpha
	r.Gap = 1 - res.Throughput/r.DualBound
	if r.Gap > gapTol {
		r.Checks = append(r.Checks, Check{Name: "optimality",
			Detail: fmt.Sprintf("gap %.2f%% exceeds tolerance %.2f%% (λ=%.6g, bound %.6g)",
				100*r.Gap, 100*gapTol, res.Throughput, r.DualBound)})
		return
	}
	r.Checks = append(r.Checks, Check{Name: "optimality", Pass: true,
		Detail: fmt.Sprintf("gap %.2f%% ≤ %.2f%% (dual bound %.6g)", 100*r.Gap, 100*gapTol, r.DualBound)})
}
