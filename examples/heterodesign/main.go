// heterodesign: designing a network from a heterogeneous switch pool
// using the paper's §5 recipe. Given two switch types, the example
// (1) sweeps the server distribution to show port-proportional placement
// is optimal, and (2) sweeps cross-cluster connectivity to show the wide
// throughput plateau that gives cabling flexibility.
package main

import (
	"fmt"
	"log"

	"repro/internal/hetero"
	"repro/internal/scenario"
)

// pool is the switch pool and server count; each sweep point appends its
// server ratio and cross-cluster ratio to it.
const pool = "hetero:nl=10,ns=20,pl=24,ps=12,servers=200"

func main() {
	topo, err := scenario.ParseTopology(pool)
	if err != nil {
		log.Fatal(err)
	}
	base := topo.(*scenario.Hetero).Cfg
	fmt.Printf("Switch pool: %d large (%d ports) + %d small (%d ports); %d servers\n",
		base.NumLarge, base.PortsLarge, base.NumSmall, base.PortsSmall, base.Servers)
	fmt.Printf("Port-proportional placement puts %.0f servers on large switches\n\n",
		hetero.ProportionalLargeServers(base))

	// Every point is one grid line with the same seed, so the sweeps
	// compare topologies on equal random draws. ok is false for a server
	// split the pool cannot host.
	engine := &scenario.Engine{SkipInfeasible: true}
	measure := func(topo string) (float64, bool) {
		grid, err := scenario.ParseGrid("topo=" + topo + " traffic=permutation eval=mcf runs=3 seed=9 eps=0.08")
		if err != nil {
			log.Fatal(err)
		}
		_, stats, err := grid.Run(engine)
		if err != nil {
			log.Fatal(err)
		}
		return stats[0].Mean, stats[0].OK
	}

	fmt.Println("1. Server distribution sweep (ratio to proportional):")
	for _, x := range []float64{0.5, 0.75, 1.0, 1.25, 1.5} {
		if t, ok := measure(fmt.Sprintf("%s,ratio=%g", pool, x)); ok {
			fmt.Printf("   x=%.2f  throughput=%.4f  %s\n", x, t, bar(t))
		} else {
			fmt.Printf("   x=%.2f  (infeasible)\n", x)
		}
	}

	fmt.Println("\n2. Cross-cluster connectivity sweep (ratio to vanilla random):")
	for _, x := range []float64{0.2, 0.4, 0.6, 1.0, 1.5, 2.0} {
		if t, ok := measure(fmt.Sprintf("%s,ratio=1,cross=%g", pool, x)); ok {
			fmt.Printf("   x=%.2f  throughput=%.4f  %s\n", x, t, bar(t))
		} else {
			fmt.Printf("   x=%.2f  (infeasible)\n", x)
		}
	}
	fmt.Println("\nDesign takeaways (paper §5): place servers proportionally to port")
	fmt.Println("count; any cross-cluster volume on the plateau works, so switches can")
	fmt.Println("be clustered for short cables without losing throughput.")
}

func bar(t float64) string {
	n := int(t * 60)
	if n > 60 {
		n = 60
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
