package bounds

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rrg"
)

func TestASPLLowerBoundHandValues(t *testing.T) {
	cases := []struct {
		n, r int
		want float64
	}{
		// K4: everyone at distance 1.
		{4, 3, 1},
		// n=5, r=2 (cycle C5): from any node, 2 at distance 1, 2 at
		// distance 2 -> (2·1+2·2)/4 = 1.5.
		{5, 2, 1.5},
		// n=7, r=2: ideal tree 2 at d1, 2 at d2, 2 at d3 -> 12/6 = 2.
		{7, 2, 2},
		// n=10, r=3: 3 at d1, 6 at d2 -> (3+12)/9 = 15/9.
		{10, 3, 15.0 / 9.0},
		// n=12, r=3: 3 at d1, 6 at d2, 2 leftover at d3 -> (3+12+6)/11.
		{12, 3, 21.0 / 11.0},
		// Trivial.
		{1, 5, 0},
		{2, 1, 1},
	}
	for _, c := range cases {
		got := ASPLLowerBound(c.n, c.r)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ASPLLowerBound(%d,%d) = %v, want %v", c.n, c.r, got, c.want)
		}
	}
}

func TestASPLLowerBoundEdgeCases(t *testing.T) {
	if !math.IsInf(ASPLLowerBound(5, 1), 1) {
		t.Fatal("1-regular on 5 nodes should be +Inf")
	}
	for _, c := range [][2]int{{0, 3}, {5, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ASPLLowerBound(%d,%d) should panic", c[0], c[1])
				}
			}()
			ASPLLowerBound(c[0], c[1])
		}()
	}
}

func TestASPLLowerBoundMonotonicity(t *testing.T) {
	// For fixed r, the bound is non-decreasing in n.
	for r := 3; r <= 8; r++ {
		prev := 0.0
		for n := r + 1; n < 300; n++ {
			b := ASPLLowerBound(n, r)
			if b < prev-1e-12 {
				t.Fatalf("bound decreased at n=%d r=%d: %v < %v", n, r, b, prev)
			}
			prev = b
		}
	}
	// For fixed n, non-increasing in r.
	for n := 20; n <= 60; n += 20 {
		prev := math.Inf(1)
		for r := 2; r < n; r++ {
			b := ASPLLowerBound(n, r)
			if b > prev+1e-12 {
				t.Fatalf("bound increased at n=%d r=%d", n, r)
			}
			prev = b
		}
	}
}

// The steps in the Fig. 3 bound open exactly at the paper's x-tics for
// degree 4: 17, 53, 161, 485, 1457 (sizes where a new tree level starts).
func TestASPLBoundStepSizes(t *testing.T) {
	// At n = 1 + 4·Σ3^i the idealized tree is exactly full; one more node
	// starts a new level.
	fullAt := []int{5, 17, 53, 161, 485, 1457}
	for li, n := range fullAt {
		level := li + 1
		// The bound at n should be achieved with all leaves at `level`.
		b := ASPLLowerBound(n, 4)
		bNext := ASPLLowerBound(n+1, 4)
		if !(bNext > b) {
			t.Fatalf("bound should strictly grow entering level %d", level+1)
		}
	}
}

// Property: every actually-constructed random regular graph respects the
// ASPL lower bound.
func TestASPLBoundIsActuallyALowerBound(t *testing.T) {
	f := func(seed int64, nRaw, rRaw uint8) bool {
		n := int(nRaw%40) + 5
		r := int(rRaw%5) + 3
		if r >= n {
			r = n - 1
		}
		if (n*r)%2 != 0 {
			r--
		}
		if r < 3 {
			return true
		}
		g, err := rrg.Regular(rand.New(rand.NewSource(seed)), n, r)
		if err != nil {
			return true
		}
		aspl, ok := g.ASPL()
		if !ok {
			return true
		}
		return aspl >= ASPLLowerBound(n, r)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputUpperBound(t *testing.T) {
	// K4 with f=4 unit flows: bound = 4·3/(1·4) = 3.
	if got := ThroughputUpperBound(4, 3, 4); math.Abs(got-3) > 1e-12 {
		t.Fatalf("got %v, want 3", got)
	}
	if !math.IsInf(ThroughputUpperBound(4, 3, 0), 1) {
		t.Fatal("f=0 should be +Inf")
	}
}

func TestTwoClusterBound(t *testing.T) {
	// Path bound: C/(aspl·f) = 400/(2·100) = 2.
	// Cut bound: C̄(n1+n2)/(2n1n2) = 40·100/(2·50·50) = 0.8.
	got := TwoClusterBound(400, 40, 2, 50, 50)
	if math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("got %v, want 0.8", got)
	}
	// Large C̄ -> path bound dominates.
	got = TwoClusterBound(400, 4000, 2, 50, 50)
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("got %v, want 2", got)
	}
	// One empty cluster -> cut bound vacuous.
	got = TwoClusterBound(400, 0, 2, 100, 0)
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("got %v, want 2", got)
	}
}

func TestCrossCapThreshold(t *testing.T) {
	// C̄* = T*·2n1n2/(n1+n2).
	if got := CrossCapThreshold(0.5, 50, 50); got != 25 {
		t.Fatalf("C̄* = %v, want 25", got)
	}
	if got := CrossCapThreshold(0.5, 0, 0); got != 0 {
		t.Fatal("empty clusters should give 0")
	}
}
