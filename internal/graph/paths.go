package graph

// BFS computes unweighted (hop-count) shortest-path distances from src.
// Unreachable nodes get distance -1.
func (g *Graph) BFS(src int) []int {
	c := g.csrView()
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for k, end := c.start[u], c.start[u+1]; k < end; k++ {
			v := c.to[k]
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ASPL returns the average shortest path length over all ordered pairs of
// distinct nodes, and whether the graph is connected. For a disconnected
// graph the average is over reachable pairs only and ok is false.
func (g *Graph) ASPL() (aspl float64, ok bool) {
	if g.n < 2 {
		return 0, true
	}
	var sum, pairs float64
	ok = true
	for i := 0; i < g.n; i++ {
		dist := g.BFS(i)
		for j, d := range dist {
			if j == i {
				continue
			}
			if d < 0 {
				ok = false
				continue
			}
			sum += float64(d)
			pairs++
		}
	}
	if pairs == 0 {
		return 0, false
	}
	return sum / pairs, ok
}

// Diameter returns the maximum finite shortest-path distance, and whether
// the graph is connected.
func (g *Graph) Diameter() (d int, ok bool) {
	ok = true
	for i := 0; i < g.n; i++ {
		dist := g.BFS(i)
		for j, dj := range dist {
			if j == i {
				continue
			}
			if dj < 0 {
				ok = false
				continue
			}
			if dj > d {
				d = dj
			}
		}
	}
	return d, ok
}

// IsConnected reports whether the graph is connected (true for n<=1).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Components returns the connected component index of each node and the
// number of components.
func (g *Graph) Components() (comp []int, count int) {
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	for s := 0; s < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = count
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, a := range g.adj[u] {
				v := g.arcs[a].To
				if comp[v] < 0 {
					comp[v] = count
					queue = append(queue, v)
				}
			}
		}
		count++
	}
	return comp, count
}

// Path is a sequence of arc indices from a source to a destination.
type Path []int32

// Len returns the hop count of the path.
func (p Path) Len() int { return len(p) }

// ShortestPathDAGPaths enumerates up to k distinct shortest paths from src
// to dst (all of minimal hop count), walking the BFS shortest-path DAG in
// deterministic (arc-index) order. It returns nil if dst is unreachable.
//
// The packet simulator's multipath routing uses this: the paper's MPTCP
// evaluation (§8.2) uses "as many as 8 subflows over the shortest paths".
func (g *Graph) ShortestPathDAGPaths(src, dst, k int) []Path {
	if k <= 0 {
		return nil
	}
	distTo := g.bfsFrom(dst)
	if distTo[src] < 0 {
		return nil
	}
	var paths []Path
	var cur Path
	var walk func(u int32)
	walk = func(u int32) {
		if len(paths) >= k {
			return
		}
		if int(u) == dst {
			paths = append(paths, append(Path(nil), cur...))
			return
		}
		for _, a := range g.adj[u] {
			v := g.arcs[a].To
			if distTo[v] == distTo[u]-1 {
				cur = append(cur, a)
				walk(v)
				cur = cur[:len(cur)-1]
				if len(paths) >= k {
					return
				}
			}
		}
	}
	walk(int32(src))
	return paths
}

func (g *Graph) bfsFrom(src int) []int32 {
	c := g.csrView()
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for k, end := c.start[u], c.start[u+1]; k < end; k++ {
			v := c.to[k]
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Dijkstra computes weighted shortest-path distances from src using the
// provided per-arc lengths, returning distances and, for each node, the arc
// used to reach it (-1 for src/unreachable). Lengths must be non-negative.
//
// Dijkstra allocates its result slices; hot paths that run many trees over
// one graph should use NewDijkstraScratch instead.
func (g *Graph) Dijkstra(src int, length []float64) (dist []float64, via []int32) {
	s := g.NewDijkstraScratch()
	s.Run(src, length, nil)
	dist = make([]float64, g.n)
	via = make([]int32, g.n)
	for i := 0; i < g.n; i++ {
		dist[i] = s.Dist(i)
		via[i] = s.Via(i)
	}
	return dist, via
}

type item struct {
	node int32
	d    float64
}

// heapF is a minimal 4-ary min-heap on (d, node). We avoid container/heap
// to skip interface boxing in the solver's hot loop; the 4-ary layout
// halves the sift-down depth, which dominates Dijkstra's heap cost.
type heapF struct{ a []item }

func (h *heapF) len() int { return len(h.a) }

func (h *heapF) push(x item) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if h.a[p].d <= h.a[i].d {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *heapF) pop() item {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		c := 4*i + 1
		if c >= last {
			break
		}
		end := c + 4
		if end > last {
			end = last
		}
		m := c
		for k := c + 1; k < end; k++ {
			if h.a[k].d < h.a[m].d {
				m = k
			}
		}
		if h.a[m].d >= h.a[i].d {
			break
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
	return top
}
