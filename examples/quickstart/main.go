// Quickstart: build a Jellyfish-style random regular graph, measure its
// throughput under random permutation traffic, and compare against the
// paper's analytical upper bound (Theorem 1 + the ASPL lower bound).
//
// Expected output: the RRG lands within a few percent of the bound — the
// paper's headline homogeneous-design result.
package main

import (
	"fmt"
	"log"

	"repro/internal/bounds"
	"repro/internal/scenario"
)

func main() {
	const (
		switches = 40 // N
		ports    = 15 // k ports per switch
		servers  = 200
	)
	perSwitch := servers / switches
	r := ports - perSwitch // network degree
	fmt.Printf("Designing a homogeneous network: N=%d switches, k=%d ports, S=%d servers\n",
		switches, ports, servers)
	fmt.Printf("=> %d servers per switch, network degree r=%d\n", perSwitch, r)

	// The same line runs as `topobench -scenario "<line>"`.
	grid, err := scenario.ParseGrid(fmt.Sprintf(
		"topo=rrg:n=%d,deg=%d,sps=%d traffic=permutation eval=mcf runs=5 seed=42 eps=0.05",
		switches, r, perSwitch))
	if err != nil {
		log.Fatal(err)
	}
	_, stats, err := grid.Run(&scenario.Engine{})
	if err != nil {
		log.Fatal(err)
	}
	stat := stats[0]

	ub := bounds.ThroughputUpperBound(switches, r, servers)
	fmt.Printf("\nMeasured throughput: %.4f ± %.4f per flow (min %.4f over %d runs)\n",
		stat.Mean, stat.Std, stat.Min, stat.Runs)
	fmt.Printf("Upper bound for ANY topology with this equipment: %.4f\n", ub)
	fmt.Printf("=> the random graph achieves %.1f%% of the optimal-topology bound\n",
		100*stat.Mean/ub)

	dstar := bounds.ASPLLowerBound(switches, r)
	fmt.Printf("\n(ASPL lower bound d* = %.4f; the bound is N·r/(d*·f) = %d·%d/(%.4f·%d))\n",
		dstar, switches, r, dstar, servers)
}
