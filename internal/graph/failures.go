package graph

import (
	"fmt"
	"math/rand"
)

// WithoutLinks returns a copy of g with the given link IDs removed.
// Server counts are preserved. Link IDs refer to g; the copy
// renumbers its links.
func (g *Graph) WithoutLinks(ids []int) (*Graph, error) {
	drop := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= g.NumLinks() {
			return nil, fmt.Errorf("graph: link id %d out of range", id)
		}
		drop[id] = true
	}
	ng := New(g.n)
	copy(ng.servers, g.servers)
	for id := 0; id < g.NumLinks(); id++ {
		if drop[id] {
			continue
		}
		u, v := g.LinkEnds(id)
		ng.AddLink(u, v, g.LinkCapacity(id))
	}
	return ng, nil
}

// FailRandomLinks removes a uniformly random fraction of g's links — the
// standard link-failure model for topology resilience studies. fraction
// must lie in [0, 1]; at least one link survives if g had any.
func (g *Graph) FailRandomLinks(rng *rand.Rand, fraction float64) (*Graph, error) {
	if !(fraction >= 0 && fraction <= 1) {
		return nil, fmt.Errorf("graph: failure fraction %v out of [0,1]", fraction)
	}
	if fraction == 0 {
		return g.Clone(), nil
	}
	n := g.NumLinks()
	k := int(fraction * float64(n))
	if k >= n && n > 0 {
		k = n - 1
	}
	perm := rng.Perm(n)
	return g.WithoutLinks(perm[:k])
}
