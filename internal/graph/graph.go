// Package graph provides the capacitated multigraph substrate used by every
// other package in this repository.
//
// A Graph models a network of switches. Nodes are switches; each node may
// have servers attached (servers are modeled as demand endpoints, not as
// graph nodes). Links are undirected and capacitated: a link of capacity c
// between u and v provides c units of capacity in each direction,
// represented internally as a pair of directed arcs. Arc 2k and arc 2k+1
// are always the two directions of link k, so the reverse of arc a is a^1.
//
// The representation supports multigraphs (parallel links) because random
// topology constructions occasionally produce them before repair, and
// because multi-trunk links between large switches (paper §5.2) are most
// naturally expressed as parallel capacity.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Arc is one direction of an undirected link.
type Arc struct {
	From, To int32
	Cap      float64
}

// Graph is an undirected capacitated multigraph over switches.
// The zero value is an empty graph; use New to create one with nodes.
type Graph struct {
	n       int
	servers []int     // servers attached to each node
	arcs    []Arc     // directed arcs; arc a's reverse is a ^ 1
	adj     [][]int32 // arc indices leaving each node

	// csrCache holds the lazily built CSR view of the adjacency used by the
	// traversal hot paths; it is invalidated by AddLink. Concurrent readers
	// may race to build it, which is harmless: the build is deterministic
	// and the last store wins.
	csrCache atomic.Pointer[csr]
}

// csr is a compressed-sparse-row view of the adjacency: the out-arcs of
// node u occupy positions start[u]..start[u+1] of the flat arrays. Keeping
// destination and arc index in parallel slices makes the Dijkstra/BFS inner
// loops walk contiguous memory instead of chasing per-node slice headers.
type csr struct {
	start []int32 // len n+1
	to    []int32 // len m: destination of the k-th adjacency entry
	arc   []int32 // len m: original arc index of the k-th adjacency entry
}

// csrView returns the CSR adjacency, building it on first use.
func (g *Graph) csrView() *csr {
	if c := g.csrCache.Load(); c != nil {
		return c
	}
	m := len(g.arcs)
	c := &csr{
		start: make([]int32, g.n+1),
		to:    make([]int32, m),
		arc:   make([]int32, m),
	}
	pos := int32(0)
	for u := 0; u < g.n; u++ {
		c.start[u] = pos
		for _, a := range g.adj[u] {
			c.to[pos] = g.arcs[a].To
			c.arc[pos] = a
			pos++
		}
	}
	c.start[g.n] = pos
	g.csrCache.Store(c)
	return c
}

// New returns a graph with n nodes and no links.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{
		n:       n,
		servers: make([]int, n),
		adj:     make([][]int32, n),
	}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:       g.n,
		servers: append([]int(nil), g.servers...),
		arcs:    append([]Arc(nil), g.arcs...),
		adj:     make([][]int32, g.n),
	}
	for i := range g.adj {
		c.adj[i] = append([]int32(nil), g.adj[i]...)
	}
	return c
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// NumLinks returns the number of undirected links.
func (g *Graph) NumLinks() int { return len(g.arcs) / 2 }

// NumArcs returns the number of directed arcs (2 per link).
func (g *Graph) NumArcs() int { return len(g.arcs) }

// Arc returns the a-th directed arc.
func (g *Graph) Arc(a int) Arc { return g.arcs[a] }

// Reverse returns the index of the reverse arc of a.
func Reverse(a int) int { return a ^ 1 }

// AddLink adds an undirected link of capacity cap (each direction) between
// u and v and returns the link index. Self-loops are rejected.
func (g *Graph) AddLink(u, v int, capacity float64) int {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: link (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("graph: non-positive capacity %v", capacity))
	}
	id := len(g.arcs) / 2
	g.arcs = append(g.arcs,
		Arc{From: int32(u), To: int32(v), Cap: capacity},
		Arc{From: int32(v), To: int32(u), Cap: capacity},
	)
	g.adj[u] = append(g.adj[u], int32(2*id))
	g.adj[v] = append(g.adj[v], int32(2*id+1))
	g.csrCache.Store(nil)
	return id
}

// OutArcs returns the arc indices leaving node u. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) OutArcs(u int) []int32 { return g.adj[u] }

// Degree returns the number of link endpoints at u (counting multiplicity).
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Neighbors returns the distinct neighbors of u in ascending order.
func (g *Graph) Neighbors(u int) []int {
	seen := make(map[int]bool, len(g.adj[u]))
	out := make([]int, 0, len(g.adj[u]))
	for _, a := range g.adj[u] {
		v := int(g.arcs[a].To)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// SetServers sets the number of servers attached to node u.
func (g *Graph) SetServers(u, s int) {
	if s < 0 {
		panic("graph: negative server count")
	}
	g.servers[u] = s
}

// Servers returns the number of servers attached to node u.
func (g *Graph) Servers(u int) int { return g.servers[u] }

// TotalServers returns the total number of attached servers.
func (g *Graph) TotalServers() int {
	t := 0
	for _, s := range g.servers {
		t += s
	}
	return t
}

// TotalCapacity returns the sum of arc capacities — the paper's C, which
// counts each direction of each link separately.
func (g *Graph) TotalCapacity() float64 {
	var c float64
	for _, a := range g.arcs {
		c += a.Cap
	}
	return c
}

// LinkCapacity returns the capacity (one direction) of link id.
func (g *Graph) LinkCapacity(id int) float64 { return g.arcs[2*id].Cap }

// LinkEnds returns the endpoints of link id.
func (g *Graph) LinkEnds(id int) (u, v int) {
	return int(g.arcs[2*id].From), int(g.arcs[2*id].To)
}

// CutCapacity returns the total capacity of arcs leaving the node set S
// (counting one direction: arcs from S to V\S).
func (g *Graph) CutCapacity(inS []bool) float64 {
	var c float64
	for _, a := range g.arcs {
		if inS[a.From] && !inS[a.To] {
			c += a.Cap
		}
	}
	return c
}

// CrossCapacity returns the total capacity of arcs in both directions
// between S and V\S — the paper's C̄ ("counting each direction separately").
func (g *Graph) CrossCapacity(inS []bool) float64 {
	var c float64
	for _, a := range g.arcs {
		if inS[a.From] != inS[a.To] {
			c += a.Cap
		}
	}
	return c
}

// IsRegular reports whether all nodes have degree r.
func (g *Graph) IsRegular() (r int, ok bool) {
	if g.n == 0 {
		return 0, true
	}
	r = len(g.adj[0])
	for i := 1; i < g.n; i++ {
		if len(g.adj[i]) != r {
			return 0, false
		}
	}
	return r, true
}

// Validate checks internal invariants and returns an error describing the
// first violation found, or nil. No builder calls it; the tests of the
// topology builders assert with it.
func (g *Graph) Validate() error {
	if len(g.arcs)%2 != 0 {
		return fmt.Errorf("graph: odd arc count %d", len(g.arcs))
	}
	for i := 0; i < len(g.arcs); i += 2 {
		f, r := g.arcs[i], g.arcs[i+1]
		if f.From != r.To || f.To != r.From {
			return fmt.Errorf("graph: arcs %d,%d are not mutual reverses", i, i+1)
		}
		if f.Cap != r.Cap {
			return fmt.Errorf("graph: asymmetric capacities on link %d", i/2)
		}
		if f.From == f.To {
			return fmt.Errorf("graph: self-loop on link %d", i/2)
		}
		if math.IsNaN(f.Cap) || f.Cap <= 0 {
			return fmt.Errorf("graph: bad capacity %v on link %d", f.Cap, i/2)
		}
	}
	total := 0
	for u, as := range g.adj {
		for _, a := range as {
			if int(g.arcs[a].From) != u {
				return fmt.Errorf("graph: adjacency of %d lists arc %d from %d", u, a, g.arcs[a].From)
			}
		}
		total += len(as)
	}
	if total != len(g.arcs) {
		return fmt.Errorf("graph: adjacency covers %d arcs, want %d", total, len(g.arcs))
	}
	return nil
}
