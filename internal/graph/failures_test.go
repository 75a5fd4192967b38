package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestGraphFailureHelpers(t *testing.T) {
	// A 4-regular circulant on 10 nodes: offsets 1 and 2.
	g := New(10)
	for u := 0; u < 10; u++ {
		g.AddLink(u, (u+1)%10, 1)
		g.AddLink(u, (u+2)%10, 1)
	}
	rng := rand.New(rand.NewSource(1))
	// WithoutLinks removes exactly the requested links.
	ng, err := g.WithoutLinks([]int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumLinks() != g.NumLinks()-2 {
		t.Fatalf("links %d, want %d", ng.NumLinks(), g.NumLinks()-2)
	}
	if _, err := g.WithoutLinks([]int{999}); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	// FailRandomLinks at 0 is a clone; at 1 leaves at least one link.
	same, err := g.FailRandomLinks(rng, 0)
	if err != nil || same.NumLinks() != g.NumLinks() {
		t.Fatalf("frac=0 changed the graph: %v", err)
	}
	one, err := g.FailRandomLinks(rng, 1)
	if err != nil || one.NumLinks() < 1 {
		t.Fatalf("frac=1 left %d links (err %v)", one.NumLinks(), err)
	}
	// A fraction outside [0, 1], NaN included, is an error.
	for _, frac := range []float64{-0.5, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := g.FailRandomLinks(rng, frac); err == nil {
			t.Errorf("frac=%v accepted", frac)
		}
	}
}
