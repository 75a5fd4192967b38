package maxflow

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/rrg"
	"repro/internal/runner"
)

// refineBalancedReference is the seed's O(n²·m) implementation, kept as a
// test oracle for the incremental-gain version.
func refineBalancedReference(g *graph.Graph, inS []bool) {
	n := g.N()
	improved := true
	for improved {
		improved = false
		cur := g.CutCapacity(inS)
		for i := 0; i < n && !improved; i++ {
			if !inS[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if inS[j] {
					continue
				}
				inS[i], inS[j] = false, true
				if c := g.CutCapacity(inS); c < cur-eps {
					improved = true
					break
				}
				inS[i], inS[j] = true, false
			}
		}
	}
}

// TestRefineBalancedMatchesReference: on unit-capacity graphs the gain
// arithmetic is exact, so the incremental refinement must make the same
// swap decisions as the brute-force reference.
func TestRefineBalancedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		g, err := rrg.Regular(rng, 24, 4)
		if err != nil {
			t.Fatal(err)
		}
		for start := 0; start < 3; start++ {
			a := make([]bool, g.N())
			b := make([]bool, g.N())
			for i := range a {
				a[i] = (i+start)%2 == 0
				b[i] = a[i]
			}
			refineBalanced(g, a)
			refineBalancedReference(g, b)
			ca, cb := g.CutCapacity(a), g.CutCapacity(b)
			if ca != cb {
				t.Fatalf("trial %d start %d: incremental cut %v, reference %v", trial, start, ca, cb)
			}
		}
	}
}

// TestBisectionWorkersInvariant: the trial reduction is a min, so the
// estimate must not depend on the process-wide worker bound.
func TestBisectionWorkersInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := rrg.Regular(rng, 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.SetMaxInFlight(0)
	var got []float64
	for _, w := range []int{1, 8, 0} {
		runner.SetMaxInFlight(w)
		got = append(got, BisectionBandwidth(g, 4))
	}
	if got[0] != got[1] || got[0] != got[2] {
		t.Fatalf("worker-count dependence: serial %v, 8 workers %v, default %v", got[0], got[1], got[2])
	}
}

// TestRefineBalancedPreservesBalance: swaps must keep the side sizes.
func TestRefineBalancedPreservesBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, err := rrg.Regular(rng, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	inS := make([]bool, g.N())
	want := 0
	for i := range inS {
		inS[i] = i%2 == 0
		if inS[i] {
			want++
		}
	}
	refineBalanced(g, inS)
	got := 0
	for _, b := range inS {
		if b {
			got++
		}
	}
	if got != want {
		t.Fatalf("side size changed: %d, want %d", got, want)
	}
}
