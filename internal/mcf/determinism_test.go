// Determinism of the phase-parallel solver: the phase-start tree prebuild
// fans out across workers, but every tree is computed against the frozen
// phase-start length function with per-source scratch state and all shared
// counters are reduced serially in source order — so the solve's output
// must be byte-identical for ANY worker count. This is the contract that
// lets the golden figure tests stay byte-for-byte across machines with
// different core counts.
package mcf_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/rrg"
	"repro/internal/runner"
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

// TestSolverDeterministicAcrossWorkers: solving the same instance with 1,
// 2, and GOMAXPROCS prebuild workers must produce identical Results down
// to the last bit — flows, paths, counters, and the dual witness alike.
// The fixtures must also engage the adaptive paths the determinism
// contract covers: the prebuild and the bucket queue on every fixture,
// incremental repair on the two RRG fixtures.
func TestSolverDeterministicAcrossWorkers(t *testing.T) {
	// Open the process-wide semaphore so multi-worker runs actually fan
	// out even on small CI boxes (the default cap is GOMAXPROCS).
	runner.SetMaxInFlight(8)
	defer runner.SetMaxInFlight(0)

	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0), 5}
	needRepairs := map[string]bool{"rrg-permutation": true, "rrg-heavy": true}
	for name, inst := range determinismInstances(t) {
		var ref *mcf.Result
		for _, w := range workerCounts {
			res, err := mcf.Solve(inst.g, inst.flows, mcf.Options{
				Epsilon: inst.eps, RecordPaths: true, Workers: w,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			// Timing is wall clock — the one Result field that is
			// non-deterministic by contract. Everything else must match.
			res.Timing = mcf.SolveTiming{}
			if ref == nil {
				ref = res
				if res.TreePrebuilds == 0 {
					t.Fatalf("%s: prebuild never engaged; the determinism test is vacuous", name)
				}
				if res.BucketBuilds == 0 {
					t.Fatalf("%s: bucket-queue traversal never engaged", name)
				}
				if needRepairs[name] && res.TreeRepairs == 0 {
					t.Fatalf("%s: incremental repair never engaged", name)
				}
				continue
			}
			if got, want := math.Float64bits(res.Throughput), math.Float64bits(ref.Throughput); got != want {
				t.Fatalf("%s workers=%d: throughput %v differs from workers=%d reference %v",
					name, w, res.Throughput, workerCounts[0], ref.Throughput)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("%s workers=%d: result diverges from workers=%d reference:\n%s",
					name, w, workerCounts[0], diffResults(ref, res))
			}
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
