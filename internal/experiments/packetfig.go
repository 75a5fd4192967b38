package experiments

import (
	"fmt"

	"repro/internal/scenario"
)

// Fig13: packet-level MPTCP throughput vs. the flow-level optimum on the
// rewired VL2 topology, under random permutation traffic. Topologies are
// deliberately oversubscribed (ToR count ≈ 1.3× the full-throughput point)
// so the flow value is close to but below 1, exposing any routing or
// congestion-control inefficiency, as in §8.2.
//
// Each DA becomes two scenario points sharing topology and traffic specs
// — one mcf-evaluated, one packet-evaluated — whose runs draw identical
// RNG streams, so the pair measures the same instances. The packet
// evaluator certifies per-node packet conservation on every simulation.
//
// The paper's curve uses DI = 28 with DA from 6 to 18; the quick grid
// shrinks to DI = 16, DA up to 12 and fewer servers per ToR to bound the
// event count.
func Fig13(o Options) (*Figure, error) {
	o = o.withDefaults()
	di := 28
	das := []int{6, 8, 10, 12, 14, 16, 18}
	serversPerToR := 20
	subflows := 8
	warmup, measure := 60.0, 240.0
	if o.Quick {
		di = 16
		das = []int{6, 8, 10}
		subflows = 4
		warmup, measure = 40, 160
	}
	runs := o.Runs
	if runs > 5 {
		runs = 5 // packet simulations dominate runtime
	}
	flowS := Series{Label: "Flow-level"}
	pktS := Series{Label: "Packet-level"}
	mkPoint := func(da int, eval scenario.Evaluator) scenario.Point {
		cfg := scenario.RewiredVL2{DA: da, DI: di, ServersPerToR: serversPerToR}
		// Size at ~1.3x the designed full-throughput point so λ < 1 and
		// transport inefficiency is visible.
		designed := da * di / 4
		cfg.ToRs = designed + designed/3
		if cfg.ToRs < 3 {
			cfg.ToRs = 3
		}
		return scenario.Point{
			Topo: &cfg, Traffic: scenario.Permutation{}, Eval: eval,
			Seed: o.Seed*131 + int64(da*100), SeedFactor: 1,
			Runs: runs, Epsilon: o.Epsilon,
		}
	}
	var pts []scenario.Point
	for _, da := range das {
		pts = append(pts,
			mkPoint(da, scenario.MCF{}),
			mkPoint(da, scenario.Packet{Subflows: subflows, Warmup: warmup, Measure: measure}))
	}
	vals, err := o.engine().MeasureRuns(pts)
	if err != nil {
		return nil, fmt.Errorf("fig13: %w", err)
	}
	for daIdx, da := range das {
		var flowSum, pktSum float64
		for run := 0; run < runs; run++ {
			flowSum += capAtOne(vals[2*daIdx][run])
			pktSum += capAtOne(vals[2*daIdx+1][run])
		}
		flowS.X = append(flowS.X, float64(da))
		flowS.Y = append(flowS.Y, flowSum/float64(runs))
		pktS.X = append(pktS.X, float64(da))
		pktS.Y = append(pktS.Y, pktSum/float64(runs))
	}
	return &Figure{
		ID: "13", Title: fmt.Sprintf("Packet-level MPTCP vs. flow-level optimum (DI=%d)", di),
		XLabel: "Aggregation Switch Degree", YLabel: "Normalized Throughput",
		Series: []Series{flowS, pktS},
	}, nil
}

func capAtOne(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}
