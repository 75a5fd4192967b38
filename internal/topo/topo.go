// Package topo constructs the named topologies used by the paper: VL2 and
// its rewired variant (§7), plus the classical structured designs the paper
// situates itself against — fat-tree, hypercube, 2D torus, and the complete
// graph — and a Jellyfish-style random-regular-graph wrapper.
//
// Conventions: one capacity unit is one server line-rate (1 GbE). VL2
// switch-to-switch links are 10 units (10 GbE).
package topo

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/rrg"
)

// VL2Config parameterizes the VL2 topology of Greenberg et al. as described
// in §7: each ToR hosts 20 1 GbE servers and has 2 10 GbE uplinks to
// distinct aggregation switches; aggregation switches have DA 10 GbE ports,
// core (intermediate) switches have DI 10 GbE ports, and aggregation and
// core switches form a complete bipartite graph.
type VL2Config struct {
	DA int // ports per aggregation switch (even)
	DI int // ports per core switch
	// ServersPerToR defaults to 20 when zero.
	ServersPerToR int
	// UplinkCap is the ToR uplink / fabric line rate in server-line-rate
	// units; defaults to 10 when zero.
	UplinkCap float64
}

func (c VL2Config) withDefaults() VL2Config {
	if c.ServersPerToR == 0 {
		c.ServersPerToR = 20
	}
	if c.UplinkCap == 0 {
		c.UplinkCap = 10
	}
	return c
}

// NumToRs returns the number of ToRs VL2 supports at full throughput:
// DA·DI/4 (§7).
func (c VL2Config) NumToRs() int { return c.DA * c.DI / 4 }

// NumAggs returns the number of aggregation switches (= DI).
func (c VL2Config) NumAggs() int { return c.DI }

// NumCores returns the number of core switches (= DA/2).
func (c VL2Config) NumCores() int { return c.DA / 2 }

// VL2 builds the standard VL2 topology. Node order: ToRs, then aggregation
// switches, then cores. Each ToR's two uplinks go to a distinct round-robin
// pair of aggregation switches, balancing ToR load across the aggregation
// layer as in the deployed design.
func VL2(cfg VL2Config) (*graph.Graph, error) {
	cfg = cfg.withDefaults()
	if cfg.DA < 2 || cfg.DA%2 != 0 || cfg.DI < 2 {
		return nil, fmt.Errorf("topo: invalid VL2 config DA=%d DI=%d", cfg.DA, cfg.DI)
	}
	nTor, nAgg, nCore := cfg.NumToRs(), cfg.NumAggs(), cfg.NumCores()
	g := graph.New(nTor + nAgg + nCore)
	agg := func(i int) int { return nTor + i }
	core := func(i int) int { return nTor + nAgg + i }
	for t := 0; t < nTor; t++ {
		g.SetServers(t, cfg.ServersPerToR)
		a1 := (2 * t) % nAgg
		a2 := (2*t + 1) % nAgg
		if a1 == a2 { // nAgg == 1 cannot host two distinct uplinks
			return nil, fmt.Errorf("topo: VL2 needs DI >= 2 distinct aggregation switches")
		}
		g.AddLink(t, agg(a1), cfg.UplinkCap)
		g.AddLink(t, agg(a2), cfg.UplinkCap)
	}
	for i := 0; i < nAgg; i++ {
		for j := 0; j < nCore; j++ {
			g.AddLink(agg(i), core(j), cfg.UplinkCap)
		}
	}
	return g, nil
}

// VL2WithToRs builds VL2 with an arbitrary ToR count on the cfg fabric
// (round-robin uplinks over aggregation pairs), allowing under- and
// oversubscription relative to the designed DA·DI/4 — the §7 capacity
// search probes exactly this family.
func VL2WithToRs(cfg VL2Config, tors int) (*graph.Graph, error) {
	cfg = cfg.withDefaults()
	if tors == cfg.NumToRs() {
		return VL2(cfg)
	}
	if cfg.DA < 2 || cfg.DA%2 != 0 || cfg.DI < 2 {
		return nil, fmt.Errorf("topo: invalid VL2 config DA=%d DI=%d", cfg.DA, cfg.DI)
	}
	if tors < 1 {
		return nil, fmt.Errorf("topo: tors=%d", tors)
	}
	nAgg, nCore := cfg.NumAggs(), cfg.NumCores()
	g := graph.New(tors + nAgg + nCore)
	agg := func(i int) int { return tors + i }
	core := func(i int) int { return tors + nAgg + i }
	for t := 0; t < tors; t++ {
		g.SetServers(t, cfg.ServersPerToR)
		a1 := (2 * t) % nAgg
		a2 := (2*t + 1) % nAgg
		g.AddLink(t, agg(a1), cfg.UplinkCap)
		g.AddLink(t, agg(a2), cfg.UplinkCap)
	}
	for i := 0; i < nAgg; i++ {
		for j := 0; j < nCore; j++ {
			g.AddLink(agg(i), core(j), cfg.UplinkCap)
		}
	}
	return g, nil
}

// RewiredVL2 builds the paper's improved topology (§7) from the same
// equipment pool as VL2(cfg) but hosting numToRs ToRs: ToR uplinks are
// spread across aggregation and core switches in proportion to switch
// degree, and all remaining 10 GbE ports are interconnected uniformly at
// random.
//
// Equipment accounting: DI aggregation switches with DA ports each and
// DA/2 core switches with DI ports each, exactly as in VL2; each ToR
// contributes 2 uplink ports.
func RewiredVL2(rng *rand.Rand, cfg VL2Config, numToRs int) (*graph.Graph, error) {
	cfg = cfg.withDefaults()
	if cfg.DA < 2 || cfg.DA%2 != 0 || cfg.DI < 2 {
		return nil, fmt.Errorf("topo: invalid VL2 config DA=%d DI=%d", cfg.DA, cfg.DI)
	}
	if numToRs < 1 {
		return nil, fmt.Errorf("topo: numToRs=%d", numToRs)
	}
	nAgg, nCore := cfg.NumAggs(), cfg.NumCores()
	nFabric := nAgg + nCore
	ports := make([]int, nFabric) // free 10G ports per fabric switch
	for i := 0; i < nAgg; i++ {
		ports[i] = cfg.DA
	}
	for i := 0; i < nCore; i++ {
		ports[nAgg+i] = cfg.DI
	}
	totalPorts := nAgg*cfg.DA + nCore*cfg.DI
	uplinks := 2 * numToRs
	if uplinks >= totalPorts {
		return nil, fmt.Errorf("topo: %d ToR uplinks exceed %d fabric ports", uplinks, totalPorts)
	}

	// Assign ToR uplinks to fabric switches in proportion to port count,
	// using largest-remainder apportionment, then round-robin the actual
	// ToR endpoints across the assigned slots.
	slots := apportion(ports, uplinks)
	for i, s := range slots {
		if s > ports[i] {
			return nil, fmt.Errorf("topo: apportionment overflow at switch %d", i)
		}
	}

	g := graph.New(numToRs + nFabric)
	fab := func(i int) int { return numToRs + i }
	for t := 0; t < numToRs; t++ {
		g.SetServers(t, cfg.ServersPerToR)
	}

	// Expand slots into an endpoint list and deal ToRs onto it so each ToR
	// gets two distinct fabric switches whenever possible.
	var endpoints []int
	for i, s := range slots {
		for k := 0; k < s; k++ {
			endpoints = append(endpoints, i)
		}
	}
	rng.Shuffle(len(endpoints), func(i, j int) { endpoints[i], endpoints[j] = endpoints[j], endpoints[i] })
	// Repair duplicate pairs before wiring anything: a ToR whose two slots
	// landed on the same switch swaps one slot with any pair that avoids
	// that switch entirely (such a pair exists unless one switch owns all
	// but one slot, which the apportionment cannot produce for numToRs>1).
	for t := 0; t < numToRs; t++ {
		if endpoints[2*t] != endpoints[2*t+1] {
			continue
		}
		e := endpoints[2*t]
		fixed := false
		for u := 0; u < numToRs && !fixed; u++ {
			if u == t {
				continue
			}
			if endpoints[2*u] != e && endpoints[2*u+1] != e {
				endpoints[2*t+1], endpoints[2*u] = endpoints[2*u], endpoints[2*t+1]
				fixed = true
			}
		}
		if !fixed {
			return nil, fmt.Errorf("topo: cannot give ToR %d two distinct uplink switches", t)
		}
	}
	for t := 0; t < numToRs; t++ {
		e1, e2 := endpoints[2*t], endpoints[2*t+1]
		g.AddLink(t, fab(e1), cfg.UplinkCap)
		g.AddLink(t, fab(e2), cfg.UplinkCap)
		ports[e1]--
		ports[e2]--
	}

	// Random interconnect over the remaining fabric ports.
	free := append([]int(nil), ports...)
	totalFree := 0
	for _, p := range free {
		totalFree += p
	}
	if totalFree%2 != 0 {
		// Drop one port from the switch with the most leftovers; an odd
		// total cannot be fully paired (one port stays dark, as in any
		// physical deployment).
		maxI := 0
		for i, p := range free {
			if p > free[maxI] {
				maxI = i
			}
		}
		free[maxI]--
	}
	sub, err := rrg.FromDegrees(rng, free, cfg.UplinkCap)
	if err != nil {
		return nil, fmt.Errorf("topo: rewired VL2 interconnect: %w", err)
	}
	for id := 0; id < sub.NumLinks(); id++ {
		u, v := sub.LinkEnds(id)
		g.AddLink(fab(u), fab(v), cfg.UplinkCap)
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("topo: rewired VL2 disconnected")
	}
	return g, nil
}

// apportion splits total slots across entries in proportion to weights
// using the largest-remainder method, never exceeding the weight itself.
func apportion(weights []int, total int) []int {
	sumW := 0
	for _, w := range weights {
		sumW += w
	}
	out := make([]int, len(weights))
	type rem struct {
		i    int
		frac float64
	}
	var rems []rem
	assigned := 0
	for i, w := range weights {
		exact := float64(total) * float64(w) / float64(sumW)
		out[i] = int(exact)
		if out[i] > w {
			out[i] = w
		}
		assigned += out[i]
		rems = append(rems, rem{i, exact - float64(out[i])})
	}
	// Distribute the remainder by largest fractional part (stable order).
	for assigned < total {
		best := -1
		for k := range rems {
			i := rems[k].i
			if out[i] >= weights[i] {
				continue
			}
			if best < 0 || rems[k].frac > rems[best].frac {
				best = k
			}
		}
		if best < 0 {
			break
		}
		out[rems[best].i]++
		rems[best].frac = -1
		assigned++
	}
	return out
}
