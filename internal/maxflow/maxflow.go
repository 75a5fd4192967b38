// Package maxflow implements exact single-commodity maximum flow (Dinic's
// algorithm) on the repository's graphs, and the balanced-cut estimate of
// bisection bandwidth behind the `bisection` evaluator. The paper's
// throughput model is multi-commodity (package mcf); MaxFlow and MinCut are
// the exact reference that mcf's tests compare the approximate solver
// against. BisectionBandwidth computes no flow: it refines balanced cuts,
// Kernighan–Lin style.
package maxflow

import (
	"math"

	"repro/internal/graph"
	"repro/internal/runner"
)

// arc is an internal residual-network arc.
type arc struct {
	to   int32
	rev  int32 // index of the reverse arc in adj[to]
	cap  float64
	flow float64
}

// Network is a residual flow network built from a Graph. Each undirected
// link contributes two independent directed capacities, matching the
// paper's "unit capacity in each direction" convention.
type Network struct {
	n   int
	adj [][]arc
}

// NewNetwork builds a flow network from g.
func NewNetwork(g *graph.Graph) *Network {
	nw := &Network{n: g.N(), adj: make([][]arc, g.N())}
	for id := 0; id < g.NumLinks(); id++ {
		u, v := g.LinkEnds(id)
		c := g.LinkCapacity(id)
		nw.addEdge(u, v, c)
		nw.addEdge(v, u, c)
	}
	return nw
}

func (nw *Network) addEdge(u, v int, c float64) {
	nw.adj[u] = append(nw.adj[u], arc{to: int32(v), rev: int32(len(nw.adj[v])), cap: c})
	nw.adj[v] = append(nw.adj[v], arc{to: int32(u), rev: int32(len(nw.adj[u]) - 1), cap: 0})
}

// reset zeroes all flow so the network can be reused.
func (nw *Network) reset() {
	for u := range nw.adj {
		for i := range nw.adj[u] {
			nw.adj[u][i].flow = 0
		}
	}
}

const eps = 1e-12

// MaxFlow computes the maximum s-t flow value. The network's flow state is
// reset first, so MaxFlow can be called repeatedly with different
// terminals.
func (nw *Network) MaxFlow(s, t int) float64 {
	nw.reset()
	var total float64
	level := make([]int32, nw.n)
	iter := make([]int, nw.n)
	for nw.bfsLevel(s, t, level) {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := nw.dfs(s, t, math.Inf(1), level, iter)
			if f <= eps {
				break
			}
			total += f
		}
	}
	return total
}

func (nw *Network) bfsLevel(s, t int, level []int32) bool {
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	queue := []int32{int32(s)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range nw.adj[u] {
			if a.cap-a.flow > eps && level[a.to] < 0 {
				level[a.to] = level[u] + 1
				queue = append(queue, a.to)
			}
		}
	}
	return level[t] >= 0
}

func (nw *Network) dfs(u, t int, limit float64, level []int32, iter []int) float64 {
	if u == t {
		return limit
	}
	for ; iter[u] < len(nw.adj[u]); iter[u]++ {
		a := &nw.adj[u][iter[u]]
		if a.cap-a.flow > eps && level[a.to] == level[u]+1 {
			f := nw.dfs(int(a.to), t, math.Min(limit, a.cap-a.flow), level, iter)
			if f > eps {
				a.flow += f
				nw.adj[a.to][a.rev].flow -= f
				return f
			}
		}
	}
	return 0
}

// MinCut computes the max s-t flow and returns the source-side node set of
// a minimum cut.
func (nw *Network) MinCut(s, t int) (value float64, sourceSide []bool) {
	value = nw.MaxFlow(s, t)
	sourceSide = make([]bool, nw.n)
	queue := []int32{int32(s)}
	sourceSide[s] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range nw.adj[u] {
			if a.cap-a.flow > eps && !sourceSide[a.to] {
				sourceSide[a.to] = true
				queue = append(queue, a.to)
			}
		}
	}
	return value, sourceSide
}

// BisectionBandwidth estimates the bisection bandwidth of g: the minimum
// over sampled balanced bipartitions of the capacity crossing the cut (one
// direction). Exact bisection is NP-hard; we refine deterministic balanced
// splits with Kernighan–Lin style local search. Trials are independent and
// run concurrently under the process-wide runner bound; the min-reduction
// is order-insensitive, so the result is deterministic given the trial
// seeds.
func BisectionBandwidth(g *graph.Graph, trials int) float64 {
	n := g.N()
	if n < 2 || trials <= 0 {
		return 0
	}
	cuts, _ := runner.Map(trials, func(t int) (float64, error) {
		inS := make([]bool, n)
		for i := 0; i < n; i++ {
			inS[i] = (i+t)%2 == 0
		}
		refineBalanced(g, inS)
		return g.CutCapacity(inS), nil
	})
	best := math.Inf(1)
	for _, c := range cuts {
		if c < best {
			best = c
		}
	}
	return best
}

// refineBalanced greedily swaps node pairs across the cut while the cut
// capacity decreases (Kernighan–Lin style). Swap gains come from per-node
// boundary capacities: with D[u] = cap(u, other side) - cap(u, own side),
// swapping i ∈ S with j ∉ S changes the cut by -(D[i] + D[j] - 2·w(i,j)).
// Each candidate pair is therefore O(1) (plus an O(deg) row fill per
// pivot), instead of recomputing the full cut capacity O(n²) times per
// pass as the seed implementation did.
func refineBalanced(g *graph.Graph, inS []bool) {
	n := g.N()
	D := make([]float64, n)
	for id := 0; id < g.NumLinks(); id++ {
		u, v := g.LinkEnds(id)
		w := g.LinkCapacity(id)
		if inS[u] != inS[v] {
			D[u] += w
			D[v] += w
		} else {
			D[u] -= w
			D[v] -= w
		}
	}
	// move flips u to the other side and updates the boundary capacities of
	// u and its neighbors.
	move := func(u int) {
		inS[u] = !inS[u]
		D[u] = -D[u]
		for _, a := range g.OutArcs(u) {
			arc := g.Arc(int(a))
			v := int(arc.To)
			if inS[v] == inS[u] {
				D[v] -= 2 * arc.Cap // the link just became internal
			} else {
				D[v] += 2 * arc.Cap // the link just started crossing
			}
		}
	}
	// wRow[j] caches cap(pivot, j); rows are invalidated by stamping.
	wRow := make([]float64, n)
	rowStamp := make([]int64, n)
	var stamp int64
	improved := true
	for improved {
		improved = false
		for i := 0; i < n && !improved; i++ {
			if !inS[i] {
				continue
			}
			stamp++
			for _, a := range g.OutArcs(i) {
				arc := g.Arc(int(a))
				v := int(arc.To)
				if rowStamp[v] != stamp {
					rowStamp[v] = stamp
					wRow[v] = 0
				}
				wRow[v] += arc.Cap
			}
			for j := 0; j < n; j++ {
				if inS[j] {
					continue
				}
				var w float64
				if rowStamp[j] == stamp {
					w = wRow[j]
				}
				if D[i]+D[j]-2*w > eps {
					move(i)
					move(j)
					improved = true
					break
				}
			}
		}
	}
}
