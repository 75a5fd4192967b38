package topo

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/rrg"
)

// FatTree builds the k-ary fat-tree of Al-Fares et al. (SIGCOMM 2008),
// which the paper (via Jellyfish) uses as the canonical Clos baseline.
// k must be even. The topology has 5k²/4 switches: k²/4 cores and k pods
// of k/2 aggregation + k/2 edge switches; each edge switch hosts k/2
// servers. All links have unit capacity.
//
// Node order: edges (pod-major), aggregations (pod-major), cores.
func FatTree(k int) (*graph.Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topo: fat-tree k=%d must be even and >= 2", k)
	}
	half := k / 2
	nEdge, nAgg, nCore := k*half, k*half, half*half
	g := graph.New(nEdge + nAgg + nCore)
	edge := func(pod, i int) int { return pod*half + i }
	agg := func(pod, i int) int { return nEdge + pod*half + i }
	core := func(i, j int) int { return nEdge + nAgg + i*half + j }
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			g.SetServers(edge(pod, e), half)
			for a := 0; a < half; a++ {
				g.AddLink(edge(pod, e), agg(pod, a), 1)
			}
		}
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				g.AddLink(agg(pod, a), core(a, j), 1)
			}
		}
	}
	return g, nil
}

// Hypercube builds the d-dimensional binary hypercube (2^d switches,
// degree d, unit capacities). The paper cites the ~30% RRG advantage over
// hypercubes at 512 nodes.
func Hypercube(d int) (*graph.Graph, error) {
	if d < 1 || d > 24 {
		return nil, fmt.Errorf("topo: hypercube dimension %d out of [1,24]", d)
	}
	n := 1 << d
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << b)
			if u < v {
				g.AddLink(u, v, 1)
			}
		}
	}
	return g, nil
}

// Torus2D builds an a×b wrap-around 2D torus (degree 4 for a,b ≥ 3).
func Torus2D(a, b int) (*graph.Graph, error) {
	if a < 3 || b < 3 {
		return nil, fmt.Errorf("topo: torus %dx%d needs both dims >= 3", a, b)
	}
	g := graph.New(a * b)
	id := func(i, j int) int { return i*b + j }
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			g.AddLink(id(i, j), id((i+1)%a, j), 1)
			g.AddLink(id(i, j), id(i, (j+1)%b), 1)
		}
	}
	return g, nil
}

// Jellyfish builds the Jellyfish topology: an RRG(N, k, r) with k-r servers
// on each of the N switches (Singla et al., NSDI 2012). It is the
// homogeneous design the paper proves near-optimal.
func Jellyfish(rng *rand.Rand, n, k, r int) (*graph.Graph, error) {
	if r > k {
		return nil, fmt.Errorf("topo: network degree r=%d exceeds port count k=%d", r, k)
	}
	g, err := rrg.Regular(rng, n, r)
	if err != nil {
		return nil, err
	}
	for u := 0; u < n; u++ {
		g.SetServers(u, k-r)
	}
	return g, nil
}
