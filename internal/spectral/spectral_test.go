package spectral

import (
	"math/rand"
	"testing"

	"repro/internal/rrg"
)

func TestSparsestCutBipartiteTwoCluster(t *testing.T) {
	// Lemma 2: for H = K_{V1,V2}, the sparsest cut is ~2q (per unit
	// demand), attained by separating one cluster.
	rng := rand.New(rand.NewSource(9))
	n := 20
	degA := make([]int, n)
	degB := make([]int, n)
	for i := range degA {
		degA[i], degB[i] = 8, 8
	}
	for _, cross := range []int{8, 24, 48} {
		g, err := rrg.TwoCluster(rng, rrg.TwoClusterSpec{DegA: degA, DegB: degB, CrossLinks: cross, LinkCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		inV1 := make([]bool, g.N())
		for i := 0; i < n; i++ {
			inV1[i] = true
		}
		phi := SparsestCutBipartite(g, inV1)
		// Whole-cluster cut: capacity 2·cross (both dirs... Cap counts one
		// direction per arc scan) over demand n·n.
		whole := float64(2*cross) / float64(n*n)
		if phi > whole+1e-9 {
			t.Fatalf("cross=%d: sparsest %v exceeds whole-cluster cut %v", cross, phi, whole)
		}
		if phi <= 0 {
			t.Fatalf("cross=%d: non-positive sparsest cut %v", cross, phi)
		}
	}
}

// Theorem 2's qualitative claim: the sparsest-cut value scales linearly
// with the cross-cluster connectivity q.
func TestSparsestCutLinearInQ(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 20
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 8
	}
	val := func(cross int) float64 {
		g, err := rrg.TwoCluster(rng, rrg.TwoClusterSpec{DegA: deg, DegB: deg, CrossLinks: cross, LinkCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		inV1 := make([]bool, g.N())
		for i := 0; i < n; i++ {
			inV1[i] = true
		}
		return SparsestCutBipartite(g, inV1)
	}
	v1, v2 := val(10), val(40)
	ratio := v2 / v1
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("4x cross links changed sparsest cut by %vx; want ~4x", ratio)
	}
}
