// Determinism of the solver: a solve runs on the calling goroutine and
// routes its sources in ascending order, refreshing each tree when a
// piece finds it stale — so solving the same instance twice must give
// byte-identical output. This is the contract that lets the golden
// figure tests stay byte-for-byte across runs and machines.
package mcf_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/rrg"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// instance is one (graph, demands, ε) determinism fixture.
type instance struct {
	g     *graph.Graph
	flows []traffic.Flow
	eps   float64
}

// determinismInstances builds named fixtures spanning the solver's
// regimes: permutation on RRG (the benchmark workload), heavy demand
// (repair-heavy), and the Clos baseline.
func determinismInstances(t *testing.T) map[string]instance {
	t.Helper()
	out := map[string]instance{}

	rng := rand.New(rand.NewSource(7))
	g, err := rrg.Regular(rng, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		g.SetServers(u, 4)
	}
	tm := traffic.Permutation(rng, traffic.HostsOf(g))
	out["rrg-permutation"] = instance{g, tm.Flows, 0.1}

	g2, err := rrg.Regular(rng, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	out["rrg-heavy"] = instance{g2, randomDemands(rng, 30, 10, 40), 0.1}

	ft, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	ftm := traffic.Permutation(rng, traffic.HostsOf(ft))
	out["fat-tree"] = instance{ft, ftm.Flows, 0.08}
	return out
}

// TestSolverDeterministic: solving the same instance twice must produce
// identical Results down to the last bit — flows, paths, counters, and the
// dual witness alike. The fixtures must also engage the adaptive paths the
// determinism contract covers: the bucket queue on every fixture,
// incremental repair on the two RRG fixtures.
func TestSolverDeterministic(t *testing.T) {
	needRepairs := map[string]bool{"rrg-permutation": true, "rrg-heavy": true}
	for name, inst := range determinismInstances(t) {
		var res [2]*mcf.Result
		for i := range res {
			r, err := mcf.Solve(inst.g, inst.flows, mcf.Options{Epsilon: inst.eps, RecordPaths: true})
			if err != nil {
				t.Fatalf("%s solve %d: %v", name, i, err)
			}
			// Timing is wall clock — the one Result field that is
			// non-deterministic by contract. Everything else must match.
			r.Timing = mcf.SolveTiming{}
			res[i] = r
		}
		ref := res[0]
		if ref.BucketBuilds == 0 {
			t.Fatalf("%s: bucket-queue traversal never engaged", name)
		}
		if needRepairs[name] && ref.TreeRepairs == 0 {
			t.Fatalf("%s: incremental repair never engaged", name)
		}
		if got, want := math.Float64bits(res[1].Throughput), math.Float64bits(ref.Throughput); got != want {
			t.Fatalf("%s: second solve's throughput %v differs from the first's %v", name, res[1].Throughput, ref.Throughput)
		}
		if !reflect.DeepEqual(res[1], ref) {
			t.Fatalf("%s: second solve diverges from the first:\n%s", name, diffResults(ref, res[1]))
		}
	}
}

// diffResults names the first field that differs, for a readable failure.
func diffResults(a, b *mcf.Result) string {
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < av.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			return fmt.Sprintf("field %s: %v vs %v",
				av.Type().Field(i).Name, av.Field(i).Interface(), bv.Field(i).Interface())
		}
	}
	return "(no field diff found)"
}
