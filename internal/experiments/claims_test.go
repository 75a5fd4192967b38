package experiments

import (
	"fmt"
	"testing"

	"repro/internal/scenario"
	"repro/internal/topo"
)

// mustTopo parses a formatted topology spec.
func mustTopo(t *testing.T, format string, args ...any) scenario.Topology {
	t.Helper()
	tp, err := scenario.ParseTopology(fmt.Sprintf(format, args...))
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// fatTreeEquipment returns the switch and server counts of the k-ary
// fat-tree, which hosts k³/4 servers at full throughput by construction.
func fatTreeEquipment(t *testing.T, k int) (switches, servers int) {
	t.Helper()
	ft, err := topo.FatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	return ft.N(), ft.TotalServers()
}

// evenRRG is a random graph on `switches` k-port switches hosting
// `servers`, spread as evenly as the ports allow: a one-type hetero pool.
func evenRRG(t *testing.T, switches, k, servers int) scenario.Topology {
	return mustTopo(t, "hetero:nl=%d,ns=0,pl=%d,ps=0,servers=%d", switches, k, servers)
}

// The Jellyfish background claim (NSDI 2012): a random graph on the same
// switches as a k-ary fat-tree supports more servers at full throughput
// under random permutation traffic, ≈25% more at scale. The random graph
// binary-searches the largest server count whose every run still reaches
// full throughput (§7's metric). At k=6 the gap is smaller than the
// asymptotic figure but must be positive.
func TestJellyfishBeatsFatTree(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver experiment; skipped in -short")
	}
	o := Options{Quick: true, Runs: 2, Seed: 2}.withDefaults()
	const k = 6
	switches, ftServers := fatTreeEquipment(t, k)
	threshold := fullThroughputThreshold(o.Epsilon)
	jfServers, err := o.engine().MaxAtFull(ftServers/2, switches*(k-1),
		func(int) float64 { return threshold },
		func(servers int) scenario.Point {
			return o.evalPoint(evenRRG(t, switches, k, servers), scenario.Permutation{}, 777)
		})
	if err != nil {
		t.Fatal(err)
	}
	gain := float64(jfServers)/float64(ftServers) - 1
	t.Logf("servers at full throughput: fat-tree %d, random graph %d (gain %+.1f%%)", ftServers, jfServers, gain*100)
	if ftServers <= 0 || jfServers <= 0 {
		t.Fatalf("degenerate server counts: fat-tree %d, random graph %d", ftServers, jfServers)
	}
	if gain < 0.05 {
		t.Fatalf("Jellyfish capacity gain only %.1f%%", gain*100)
	}
}

// The §1 claim via [20]: RRGs beat hypercubes, with a healthy margin by
// 256 nodes (we use dim=6, 64 nodes, to keep test time down). Both hold
// 2 servers per 8-port switch.
func TestRRGBeatsHypercube(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver experiment; skipped in -short")
	}
	o := Options{Quick: true, Runs: 2, Seed: 2, Epsilon: 0.12}.withDefaults()
	stats, err := o.engine().Measure([]scenario.Point{
		o.evalPoint(mustTopo(t, "hypercube:dim=6,sps=2"), scenario.Permutation{}, 0),
		o.evalPoint(mustTopo(t, "jellyfish:n=64,ports=8,deg=6"), scenario.Permutation{}, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	gain := stats[1].Mean/stats[0].Mean - 1
	t.Logf("throughput: hypercube %.4f, random graph %.4f (gain %+.1f%%)", stats[0].Mean, stats[1].Mean, gain*100)
	if gain < 0.05 {
		t.Fatalf("RRG gain over hypercube only %.1f%%", gain*100)
	}
}

// failureCurve measures mean throughput under each link-failure fraction
// (the failures evaluator over mcf), and its ratio to the first, intact
// fraction. Every fraction's run i fails links of the same built graph
// under the same permutation. disconnected counts the runs a fraction
// disconnected: they measure exactly 0.
func failureCurve(t *testing.T, o Options, tp scenario.Topology, fracs []float64) (norm, abs []float64, disconnected []int) {
	t.Helper()
	o = o.withDefaults()
	pts := make([]scenario.Point, len(fracs))
	for i, f := range fracs {
		ev, err := scenario.ParseEvaluator(fmt.Sprintf("failures:frac=%g,eval=mcf", f))
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = o.evalPoint(tp, scenario.Permutation{}, 0)
		pts[i].Eval = ev
	}
	vals, err := o.engine().MeasureRuns(pts)
	if err != nil {
		t.Fatal(err)
	}
	norm, abs, disconnected = make([]float64, len(fracs)), make([]float64, len(fracs)), make([]int, len(fracs))
	for i, runs := range vals {
		abs[i] = scenario.Summarize(runs).Mean
		for _, v := range runs {
			if v == 0 {
				disconnected[i]++
			}
		}
	}
	for i := range abs {
		if abs[0] > 0 {
			norm[i] = abs[i] / abs[0]
		}
	}
	t.Logf("%s: mean %v, normalized %v, disconnected runs %v", tp.Spec(), abs, norm, disconnected)
	return norm, abs, disconnected
}

// Random graphs degrade gracefully under random link failures.
func TestFailureSweepDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver experiment; skipped in -short")
	}
	o := Options{Quick: true, Runs: 2, Seed: 5}
	norm, _, disconnected := failureCurve(t, o, mustTopo(t, "rrg:n=20,deg=6,sps=3"), []float64{0, 0.05, 0.15, 0.3})
	if norm[0] != 1 {
		t.Fatalf("zero-failure point normalized to %v", norm[0])
	}
	// Monotone degradation (up to small noise).
	for i := 1; i < len(norm); i++ {
		if norm[i] > norm[i-1]*1.1 {
			t.Fatalf("throughput rose with more failures: %v", norm)
		}
	}
	// Graceful: 5% failures should not halve throughput on a degree-6 RRG.
	if norm[1] < 0.5 {
		t.Fatalf("5%% failures collapsed throughput to %v", norm[1])
	}
	// 30% failures hurt but rarely disconnect a degree-6 expander.
	if disconnected[3] > 1 {
		t.Fatalf("degree-6 RRG disconnected in %d/2 runs at 30%%", disconnected[3])
	}
}

// Graceful degradation compared: the same failure fractions applied to a
// k=4 fat-tree and to a random graph on its switches and servers.
func TestRRGVsFatTreeFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver experiment; skipped in -short")
	}
	o := Options{Quick: true, Runs: 2, Seed: 5}
	const k = 4
	fracs := []float64{0, 0.1}
	switches, servers := fatTreeEquipment(t, k)
	rrgNorm, rrgAbs, rrgDisconnected := failureCurve(t, o, evenRRG(t, switches, k, servers), fracs)
	_, ftAbs, _ := failureCurve(t, o, mustTopo(t, "fattree:k=%d", k), fracs)
	if rrgAbs[0] <= 0 || ftAbs[0] <= 0 {
		t.Fatal("zero baseline throughput")
	}
	// Both should retain positive throughput at 10% failures unless
	// disconnected; the RRG should not degrade catastrophically more
	// than the fat-tree.
	if rrgDisconnected[1] == 0 && rrgNorm[1] < 0.3 {
		t.Fatalf("RRG lost %v of throughput at 10%% failures", 1-rrgNorm[1])
	}
}
