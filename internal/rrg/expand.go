package rrg

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// ExpandWithSwitch implements the incremental expansion the paper credits
// to Jellyfish (§2): "adding equipment simply involves a few random link
// swaps". A new switch with netDegree network ports (plus servers, set by
// the caller afterwards) joins an existing random graph by removing
// netDegree/2 random existing links (u,v) and rewiring them as (u,new)
// and (v,new). Degrees of existing switches are unchanged; the new switch
// ends with exactly netDegree links (netDegree must be even).
//
// The returned graph is a new object; g is not modified. linkCap is the
// capacity of the new links (existing links keep theirs).
func ExpandWithSwitch(rng *rand.Rand, g *graph.Graph, netDegree int, linkCap float64) (*graph.Graph, error) {
	if netDegree <= 0 || netDegree%2 != 0 {
		return nil, fmt.Errorf("%w: expansion degree %d must be positive and even", ErrInfeasible, netDegree)
	}
	if g.NumLinks() < netDegree/2 {
		return nil, fmt.Errorf("%w: not enough links to swap", ErrInfeasible)
	}
	for attempt := 0; attempt < maxRestarts; attempt++ {
		ng, ok := tryExpand(rng, g, netDegree, linkCap)
		if ok && ng.IsConnected() {
			return ng, nil
		}
	}
	return nil, fmt.Errorf("%w: expansion failed", ErrInfeasible)
}

func tryExpand(rng *rand.Rand, g *graph.Graph, netDegree int, linkCap float64) (*graph.Graph, bool) {
	n := g.N()
	newNode := n
	// Choose netDegree/2 distinct links to break, avoiding links whose
	// endpoints already link to everything (cannot happen for the new
	// node) and duplicate (endpoint, newNode) pairs.
	chosen := make(map[int]bool)
	endpointUsed := make(map[int]bool)
	var breaks []int
	for guard := 0; len(breaks) < netDegree/2 && guard < 50*g.NumLinks(); guard++ {
		id := rng.Intn(g.NumLinks())
		if chosen[id] {
			continue
		}
		u, v := g.LinkEnds(id)
		// Each endpoint may gain at most one link to the new switch here;
		// a duplicate would create a parallel link.
		if endpointUsed[u] || endpointUsed[v] {
			continue
		}
		chosen[id] = true
		endpointUsed[u] = true
		endpointUsed[v] = true
		breaks = append(breaks, id)
	}
	if len(breaks) < netDegree/2 {
		return nil, false
	}
	ng := graph.New(n + 1)
	for u := 0; u < n; u++ {
		ng.SetServers(u, g.Servers(u))
	}
	for id := 0; id < g.NumLinks(); id++ {
		if chosen[id] {
			continue
		}
		u, v := g.LinkEnds(id)
		ng.AddLink(u, v, g.LinkCapacity(id))
	}
	for _, id := range breaks {
		u, v := g.LinkEnds(id)
		ng.AddLink(u, newNode, linkCap)
		ng.AddLink(v, newNode, linkCap)
	}
	return ng, true
}

// ExpandBy grows g by count switches, each with netDegree network links,
// applying ExpandWithSwitch repeatedly.
func ExpandBy(rng *rand.Rand, g *graph.Graph, count, netDegree int, linkCap float64) (*graph.Graph, error) {
	cur := g
	for i := 0; i < count; i++ {
		ng, err := ExpandWithSwitch(rng, cur, netDegree, linkCap)
		if err != nil {
			return nil, fmt.Errorf("rrg: expansion step %d: %w", i, err)
		}
		cur = ng
	}
	return cur, nil
}
