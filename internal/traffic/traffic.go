// Package traffic generates the workloads evaluated in the paper: random
// permutation traffic among servers (§3, the default), all-to-all traffic,
// and the x% Chunky pattern of §8.1. Server-level flows are aggregated to
// switch-level commodities for the flow solver.
package traffic

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Flow is a switch-level commodity: Demand units must travel from switch
// Src to switch Dst. Aggregation sums the demands of all server pairs with
// the same (Src, Dst).
type Flow struct {
	Src, Dst int
	Demand   float64
}

// Matrix is a set of commodities plus bookkeeping about the server-level
// flows it was aggregated from.
type Matrix struct {
	Flows []Flow
	// ServerFlows is the number of server-level flows, including flows
	// whose endpoints share a switch (which consume no network capacity
	// and are dropped from Flows). This is the paper's f.
	ServerFlows int
	// Colocated counts the dropped same-switch flows.
	Colocated int
}

// TotalDemand returns the sum of commodity demands.
func (m *Matrix) TotalDemand() float64 {
	var t float64
	for _, f := range m.Flows {
		t += f.Demand
	}
	return t
}

// Hosts maps server IDs to switches. Server IDs are assigned contiguously
// switch by switch: switch u hosts servers [first[u], first[u+1]).
type Hosts struct {
	SwitchOf []int // server -> switch
	BySwitch [][]int
}

// HostsOf derives the server placement from a graph's per-node server
// counts.
func HostsOf(g *graph.Graph) *Hosts {
	h := &Hosts{BySwitch: make([][]int, g.N())}
	id := 0
	for u := 0; u < g.N(); u++ {
		for k := 0; k < g.Servers(u); k++ {
			h.SwitchOf = append(h.SwitchOf, u)
			h.BySwitch[u] = append(h.BySwitch[u], id)
			id++
		}
	}
	return h
}

// NumServers returns the total number of servers.
func (h *Hosts) NumServers() int { return len(h.SwitchOf) }

// aggregate turns server-level (src, dst) pairs into switch-level
// commodities with unit demand per pair.
func (h *Hosts) aggregate(pairs [][2]int) *Matrix {
	type key struct{ s, d int }
	agg := make(map[key]float64)
	m := &Matrix{ServerFlows: len(pairs)}
	for _, p := range pairs {
		su, du := h.SwitchOf[p[0]], h.SwitchOf[p[1]]
		if su == du {
			m.Colocated++
			continue
		}
		agg[key{su, du}]++
	}
	m.Flows = make([]Flow, 0, len(agg))
	for k, d := range agg {
		m.Flows = append(m.Flows, Flow{Src: k.s, Dst: k.d, Demand: d})
	}
	sort.Slice(m.Flows, func(i, j int) bool {
		if m.Flows[i].Src != m.Flows[j].Src {
			return m.Flows[i].Src < m.Flows[j].Src
		}
		return m.Flows[i].Dst < m.Flows[j].Dst
	})
	return m
}

// Permutation generates random permutation traffic: every server sends to
// exactly one other server and receives from exactly one other server, and
// no server sends to itself (a random derangement).
func Permutation(rng *rand.Rand, h *Hosts) *Matrix {
	n := h.NumServers()
	perm := Derangement(rng, n)
	pairs := make([][2]int, 0, n)
	for s, d := range perm {
		pairs = append(pairs, [2]int{s, d})
	}
	return h.aggregate(pairs)
}

// Derangement returns a uniform-ish random permutation of [0,n) with no
// fixed points, using rejection of fixed points via swap repair. For n == 1
// the identity is unavoidable and returned as-is.
func Derangement(rng *rand.Rand, n int) []int {
	perm := rng.Perm(n)
	if n < 2 {
		return perm
	}
	for i := 0; i < n; i++ {
		if perm[i] == i {
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	// The swap above cannot create a new fixed point: perm[j] != i by
	// injectivity (position i already mapped to i), so position i receives
	// a non-fixed value and position j receives i != j. Re-check
	// defensively all the same.
	for i := 0; i < n; i++ {
		for perm[i] == i {
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	return perm
}

// AllToAll generates all-to-all traffic: every server sends one unit to
// every other server.
func AllToAll(h *Hosts) *Matrix {
	n := h.NumServers()
	pairs := make([][2]int, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				pairs = append(pairs, [2]int{s, d})
			}
		}
	}
	return h.aggregate(pairs)
}

// Chunky generates the x% Chunky pattern of §8.1: a fraction of the ToRs
// (switches that host servers) engage in a ToR-level permutation — every
// server of ToR A sends all traffic to servers of one other ToR B in the
// chunky set — while the remaining servers run a server-level random
// permutation among themselves.
func Chunky(rng *rand.Rand, h *Hosts, fraction float64) (*Matrix, error) {
	if !(fraction >= 0 && fraction <= 1) {
		return nil, fmt.Errorf("traffic: chunky fraction %v out of [0,1]", fraction)
	}
	var tors []int
	for u, list := range h.BySwitch {
		if len(list) > 0 {
			tors = append(tors, u)
		}
	}
	nChunky := int(float64(len(tors))*fraction + 0.5)
	if nChunky%2 == 1 { // ToR-level permutation needs pairs
		nChunky--
	}
	rng.Shuffle(len(tors), func(i, j int) { tors[i], tors[j] = tors[j], tors[i] })
	chunky := tors[:nChunky]

	var pairs [][2]int
	// ToR-level permutation among the chunky set: match ToRs into a
	// derangement at ToR granularity, then map server i of A to server
	// i mod |B| of B.
	cperm := Derangement(rng, len(chunky))
	for ai, bi := range cperm {
		a, b := chunky[ai], chunky[bi]
		bs := h.BySwitch[b]
		for i, s := range h.BySwitch[a] {
			pairs = append(pairs, [2]int{s, bs[i%len(bs)]})
		}
	}
	// Server-level permutation among the rest.
	var rest []int
	inChunky := make(map[int]bool, len(chunky))
	for _, u := range chunky {
		inChunky[u] = true
	}
	for u, list := range h.BySwitch {
		if len(list) > 0 && !inChunky[u] {
			rest = append(rest, list...)
		}
	}
	rperm := Derangement(rng, len(rest))
	for i, j := range rperm {
		pairs = append(pairs, [2]int{rest[i], rest[j]})
	}
	return h.aggregate(pairs), nil
}

// Hotspot generates a pattern where a fraction of servers all send to a
// single hot destination server while the rest run a permutation. Not in
// the paper's figures; provided for "easy to augment with arbitrary
// traffic patterns" (§9).
func Hotspot(rng *rand.Rand, h *Hosts, fraction float64) (*Matrix, error) {
	if !(fraction >= 0 && fraction <= 1) {
		return nil, fmt.Errorf("traffic: hotspot fraction %v out of [0,1]", fraction)
	}
	n := h.NumServers()
	if n < 2 {
		return h.aggregate(nil), nil
	}
	hot := rng.Intn(n)
	nHot := int(float64(n) * fraction)
	order := rng.Perm(n)
	var pairs [][2]int
	var rest []int
	count := 0
	for _, s := range order {
		if s == hot {
			continue
		}
		if count < nHot {
			pairs = append(pairs, [2]int{s, hot})
			count++
		} else {
			rest = append(rest, s)
		}
	}
	rperm := Derangement(rng, len(rest))
	for i, j := range rperm {
		pairs = append(pairs, [2]int{rest[i], rest[j]})
	}
	return h.aggregate(pairs), nil
}
