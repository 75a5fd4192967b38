// vl2rewire: the paper's §7 case study at one scale. Builds VL2(DA, DI)
// and the rewired variant from the same equipment, then binary-searches
// how many ToRs each supports at full throughput under random permutation
// traffic. The rewired topology should support noticeably more.
package main

import (
	"fmt"
	"log"

	"repro/internal/scenario"
	"repro/internal/topo"
)

func main() {
	cfg := topo.VL2Config{DA: 12, DI: 16}
	designed := cfg.NumToRs()
	fmt.Printf("VL2 with DA=%d, DI=%d: %d aggregation, %d core switches, designed for %d ToRs (%d servers)\n",
		cfg.DA, cfg.DI, cfg.NumAggs(), cfg.NumCores(), designed, designed*20)
	kinds := []struct{ name, kind string }{{"VL2", "vl2"}, {"rewired", "rewired-vl2"}}
	engine := &scenario.Engine{}

	// Direct throughput comparison at the designed size (tors=0).
	for _, k := range kinds {
		dets, err := engine.MeasureDetailed([]scenario.Point{point(
			"topo=%s:da=%d,di=%d traffic=permutation eval=mcf runs=1 seed=7 eps=0.05", k.kind, cfg.DA, cfg.DI)})
		if err != nil {
			log.Fatal(err)
		}
		d := dets[0][0]
		aspl, _ := d.G.ASPL()
		fmt.Printf("  %-8s λ=%.3f  links=%d  ASPL=%.3f\n", k.name, d.Value, d.G.NumLinks(), aspl)
	}

	// The §7 search: max ToRs at full throughput for each topology. It
	// starts at two ToRs: one ToR carries no network traffic, so it has no
	// throughput to measure (MaxAtFull returns 1 if two already fall short).
	const threshold = 0.90 // 1 minus solver slack
	var maxToRs [2]int
	for i, k := range kinds {
		var err error
		maxToRs[i], err = engine.MaxAtFull(2, designed*2, func(int) float64 { return threshold }, func(tors int) scenario.Point {
			return point("topo=%s:da=%d,di=%d,tors=%d traffic=permutation eval=mcf runs=3 seed=11 eps=0.08",
				k.kind, cfg.DA, cfg.DI, tors)
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nToRs at full throughput:  VL2=%d  rewired=%d  (%.0f%% improvement)\n",
		maxToRs[0], maxToRs[1], 100*(float64(maxToRs[1])/float64(maxToRs[0])-1))
}

// point is the single point of a grid line, as `topobench -scenario`
// takes it.
func point(format string, args ...any) scenario.Point {
	grid, err := scenario.ParseGrid(fmt.Sprintf(format, args...))
	if err != nil {
		log.Fatal(err)
	}
	gps, err := grid.Points()
	if err != nil {
		log.Fatal(err)
	}
	return gps[0].Point
}
