// Package bounds implements the analytical bounds from "High Throughput
// Data Center Topology Design" (NSDI 2014):
//
//   - Theorem 1: a throughput upper bound T ≤ N·r/(⟨D⟩·f) for any r-regular
//     topology on N switches carrying f uniform flows.
//   - The Cerf–Cowan–Mullin–Stanton lower bound d* on the average shortest
//     path length of any r-regular graph, which combined with Theorem 1
//     yields T ≤ N·r/(d*·f).
//   - The heterogeneous two-cluster upper bound of §6.2 (Eq. 1) and the C̄*
//     threshold used in Fig. 11.
package bounds

import (
	"fmt"
	"math"
)

// ASPLLowerBound returns d*, the Cerf et al. lower bound on the average
// shortest path length of any r-regular graph with n nodes:
//
//	d* = (Σ_{j=1}^{k-1} j·r·(r-1)^{j-1} + k·R) / (n-1)
//	R  = n-1 - Σ_{j=1}^{k-1} r·(r-1)^{j-1} ≥ 0
//
// with k the largest integer for which R ≥ 0. Intuitively this counts an
// idealized BFS tree: r nodes at distance 1, r(r-1) at distance 2, and so
// on, with the R leftover nodes at distance k.
//
// It panics if n < 1 or r < 1. For n == 1 it returns 0. For r == 1 only
// n == 2 admits a regular graph; larger n return +Inf as no connected
// 1-regular graph exists.
func ASPLLowerBound(n, r int) float64 {
	switch {
	case n < 1 || r < 1:
		panic(fmt.Sprintf("bounds: invalid ASPLLowerBound(%d, %d)", n, r))
	case n == 1:
		return 0
	case r == 1:
		if n == 2 {
			return 1
		}
		return math.Inf(1)
	}
	remaining := float64(n - 1) // nodes still to place
	var sum float64             // Σ j · (nodes at level j)
	level := 1
	width := float64(r) // nodes the ideal tree fits at this level
	for remaining > width {
		sum += float64(level) * width
		remaining -= width
		width *= float64(r - 1)
		level++
	}
	sum += float64(level) * remaining
	return sum / float64(n-1)
}

// ThroughputUpperBound returns the Theorem 1 bound evaluated with the
// ASPL lower bound d*: the maximum per-flow throughput of any r-regular
// topology on n switches carrying f uniform flows of unit demand,
//
//	T ≤ n·r / (d*·f).
//
// Each network link is assumed to have unit capacity per direction, as in
// the paper's homogeneous setting (§4). Returns +Inf if f == 0.
func ThroughputUpperBound(n, r, f int) float64 {
	if f == 0 {
		return math.Inf(1)
	}
	dstar := ASPLLowerBound(n, r)
	return float64(n) * float64(r) / (dstar * float64(f))
}

// TwoClusterBound is the §6.2 heterogeneous upper bound (Eq. 1):
//
//	T ≤ min{ C/(⟨D⟩·(n1+n2)),  C̄·(n1+n2)/(2·n1·n2) }
//
// where C is total network capacity (both directions), C̄ the capacity
// crossing between the clusters (both directions), ⟨D⟩ the average shortest
// path length, and n1, n2 the servers attached to each cluster. The flows
// are a random permutation over the n1+n2 servers.
func TwoClusterBound(totalCap, crossCap, aspl float64, n1, n2 int) float64 {
	f := n1 + n2
	if f == 0 {
		return math.Inf(1)
	}
	pathBound := totalCap / (aspl * float64(f))
	if n1 == 0 || n2 == 0 {
		return pathBound
	}
	cutBound := crossCap * float64(n1+n2) / (2 * float64(n1) * float64(n2))
	return math.Min(pathBound, cutBound)
}

// CrossCapThreshold returns C̄* = T*·2·n1·n2/(n1+n2): given (an estimate of)
// the peak throughput T*, throughput must be below T* whenever the
// cross-cluster capacity is below C̄*. This is the marked point on each
// Fig. 11 curve.
func CrossCapThreshold(tstar float64, n1, n2 int) float64 {
	if n1+n2 == 0 {
		return 0
	}
	return tstar * 2 * float64(n1) * float64(n2) / float64(n1+n2)
}
