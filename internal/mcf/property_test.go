// Property-based certification of the solver: every solve on randomized
// instances must pass the independent flowcheck verifier, and the solver's
// incremental tree repair must be indistinguishable from full rebuilds.
// The package is mcf_test so it can import flowcheck (which imports mcf).
package mcf_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/flowcheck"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/rrg"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// randomDemands draws a randomized demand matrix: each commodity joins two
// distinct random switches with a demand in (0, maxD].
func randomDemands(rng *rand.Rand, n, count int, maxD float64) []traffic.Flow {
	var flows []traffic.Flow
	seen := map[[2]int]bool{}
	for len(flows) < count {
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d || seen[[2]int{s, d}] {
			continue
		}
		seen[[2]int{s, d}] = true
		flows = append(flows, traffic.Flow{Src: s, Dst: d, Demand: maxD * (0.1 + 0.9*rng.Float64())})
	}
	return flows
}

// certify solves the instance with path recording and demands a clean
// flowcheck report.
func certify(t *testing.T, g *graph.Graph, flows []traffic.Flow, eps float64, ctx string) *mcf.Result {
	t.Helper()
	res, err := mcf.Solve(g, flows, mcf.Options{Epsilon: eps, RecordPaths: true})
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	rep, err := flowcheck.Verify(g, flows, res, flowcheck.Options{})
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if !rep.OK() {
		t.Fatalf("%s: verifier rejected the solve:\n%s", ctx, rep)
	}
	return res
}

// TestFlowcheckCertifiesRandomRRG: randomized regular random graphs under
// randomized demand matrices; every solve must verify.
func TestFlowcheckCertifiesRandomRRG(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		n := 12 + rng.Intn(30)
		r := 3 + rng.Intn(5)
		if r >= n {
			r = n - 1
		}
		if n*r%2 == 1 {
			r--
		}
		g, err := rrg.Regular(rng, n, r)
		if err != nil {
			t.Fatal(err)
		}
		flows := randomDemands(rng, n, 2+rng.Intn(3*n), 1+4*rng.Float64())
		eps := 0.05 + 0.1*rng.Float64()
		certify(t, g, flows, eps, fmt.Sprintf("rrg trial %d (n=%d r=%d)", trial, n, r))
	}
}

// TestFlowcheckCertifiesFatTree: the Clos baseline with permutation and
// randomized demands.
func TestFlowcheckCertifiesFatTree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.Permutation(rng, traffic.HostsOf(g))
	certify(t, g, tm.Flows, 0.08, "fat-tree permutation")
	flows := randomDemands(rng, g.N(), 40, 2)
	certify(t, g, flows, 0.1, "fat-tree random demands")
}

// TestFlowcheckCertifiesAllToAll: the potential-rule exit regime. Dense
// all-to-all demand ends the solve on Σ lens·caps ≥ 1 rather than the
// early certificate, where only the classical 3ε guarantee (against the
// best-phase dual witness) holds — the regime that forced DualLens to be
// the argmin-phase snapshot instead of the final lengths.
func TestFlowcheckCertifiesAllToAll(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g, err := rrg.Regular(rng, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		g.SetServers(u, 2)
	}
	tm := traffic.AllToAll(traffic.HostsOf(g))
	certify(t, g, tm.Flows, 0.1, "all-to-all")
}

// heavyDemand is the repair-heavy fixture: demand far above bottleneck
// capacity, many pieces per phase.
func heavyDemand(t *testing.T) (*graph.Graph, []traffic.Flow) {
	rng := rand.New(rand.NewSource(23))
	g, err := rrg.Regular(rng, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g, randomDemands(rng, 60, 8, 30)
}

// TestFlowcheckCertifiesHeavyDemand: the repair-heavy regime must stay
// certified.
func TestFlowcheckCertifiesHeavyDemand(t *testing.T) {
	g, flows := heavyDemand(t)
	res := certify(t, g, flows, 0.1, "heavy-demand")
	if res.TreeRepairs == 0 {
		t.Fatal("no repairs engaged on the heavy-demand instance")
	}
}

// TestFlowcheckCertifiesSharedTreeFallback: an instance whose per-source
// trees would exceed the memory budget is solved with one shared tree,
// which neither prebuilds nor repairs. No figure's instance is that
// large, so the test forces the fallback with a zero budget: a random RRG
// and the heavy-demand fixture, which engage both the prebuild and repair
// at the default budget, engage neither under it and still certify.
func TestFlowcheckCertifiesSharedTreeFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g, err := rrg.Regular(rng, 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	hg, hflows := heavyDemand(t)
	for _, fx := range []struct {
		name  string
		g     *graph.Graph
		flows []traffic.Flow
	}{
		{"random rrg", g, randomDemands(rng, 40, 80, 4)},
		{"heavy-demand", hg, hflows},
	} {
		res := certify(t, fx.g, fx.flows, 0.1, fx.name)
		if res.TreePrebuilds == 0 || res.TreeRepairs == 0 {
			t.Fatalf("%s at the default budget: %d prebuilds, %d repairs; the fixture must engage both",
				fx.name, res.TreePrebuilds, res.TreeRepairs)
		}
		func() {
			// Deferred, the restore also runs when certify fails the test.
			defer mcf.SetTreeBudget(0)()
			res = certify(t, fx.g, fx.flows, 0.1, fx.name+" (shared tree)")
		}()
		if res.TreePrebuilds != 0 || res.TreeRepairs != 0 {
			t.Fatalf("%s with the shared tree: %d prebuilds, %d repairs, want 0 and 0",
				fx.name, res.TreePrebuilds, res.TreeRepairs)
		}
	}
}

// TestRepairOracleUnderSolverLengths drives the graph-level repair through
// the exact length evolution the solver produces — multiplicative growth
// along root-to-destination paths — and demands bit-identical dist/via
// against a from-scratch Dijkstra after every batch. Together with
// graph.TestRepairOracle this is the repair oracle: ≥100 randomized
// sequences across the two.
func TestRepairOracleUnderSolverLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for seq := 0; seq < 60; seq++ {
		n := 16 + rng.Intn(60)
		r := 3 + rng.Intn(4)
		if r >= n {
			r = n - 1
		}
		if n*r%2 == 1 {
			r--
		}
		g, err := rrg.Regular(rng, n, r)
		if err != nil {
			t.Fatal(err)
		}
		m := g.NumArcs()
		lens := make([]float64, m)
		for a := range lens {
			lens[a] = 0.01 * (1 + 0.001*rng.Float64()) // near-uniform GK start, no exact ties
		}
		src := rng.Intn(n)
		d := g.NewDijkstraScratch()
		d.Run(src, lens, nil)
		for round := 0; round < 6; round++ {
			// Grow the arcs of the current tree path to a random target by
			// the solver's (1 + ε·u/c) factor, plus a few foreign arcs.
			var changed []int32
			dst := rng.Intn(n)
			for at := dst; at != src; {
				a := d.Via(at)
				if a < 0 {
					break
				}
				lens[a] *= 1 + 0.1*rng.Float64()
				changed = append(changed, a)
				at = int(g.Arc(int(a)).From)
			}
			for k := 0; k < 3; k++ {
				a := int32(rng.Intn(m))
				lens[a] *= 1 + 0.05*rng.Float64()
				changed = append(changed, a)
			}
			if !d.Repair(lens, changed) {
				t.Fatalf("seq %d round %d: repair refused", seq, round)
			}
			dist, via := g.Dijkstra(src, lens)
			for v := 0; v < n; v++ {
				if d.Dist(v) != dist[v] || d.Via(v) != via[v] {
					t.Fatalf("seq %d round %d: node %d repair (%v, %d) != rebuild (%v, %d)",
						seq, round, v, d.Dist(v), d.Via(v), dist[v], via[v])
				}
			}
		}
	}
}
