package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func quickOpts() Options {
	return Options{Quick: true, Runs: 2, Seed: 1}
}

func TestIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Runs != 20 || o.Seed != 1 || o.Epsilon != 0.08 {
		t.Fatalf("full defaults wrong: %+v", o)
	}
	q := Options{Quick: true}.withDefaults()
	if q.Runs != 3 || q.Epsilon != 0.12 {
		t.Fatalf("quick defaults wrong: %+v", q)
	}
}

func TestTSVFormat(t *testing.T) {
	fig := &Figure{
		ID: "x", Title: "T", XLabel: "xs", YLabel: "ys",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{3, 4}, Err: []float64{0.1, 0.2}, Note: "n"},
			{Label: "b", X: []float64{5}, Y: []float64{6}},
		},
	}
	var sb strings.Builder
	if err := fig.TSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# Figure x: T", "# series: a", "# note: n", "1\t3\t0.1", "5\t6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("TSV missing %q:\n%s", want, out)
		}
	}
}

func TestFig1bObservedAboveBound(t *testing.T) {
	fig, err := Fig1b(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series %d", len(fig.Series))
	}
	obs, bound := fig.Series[0], fig.Series[1]
	for i := range obs.X {
		if obs.Y[i] < bound.Y[i]-1e-9 {
			t.Fatalf("observed ASPL %v below bound %v at x=%v", obs.Y[i], bound.Y[i], obs.X[i])
		}
	}
	// ASPL decreases with density.
	if obs.Y[0] <= obs.Y[len(obs.Y)-1] {
		t.Fatal("ASPL should fall as degree grows")
	}
}

func TestFig1aRatioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver figure; skipped in -short")
	}
	fig, err := Fig1a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for i, y := range s.Y {
			if y < 0 || y > 1.05 {
				t.Fatalf("%s: ratio %v out of [0,1] at x=%v", s.Label, y, s.X[i])
			}
		}
		// Ratio at the right edge (dense) should be high. Quick mode runs
		// the solver at ε=0.12, so measured ratios drift within the ε
		// class whenever the solver's path tie-breaking changes (the 5
		// servers/switch series sits at ≈0.60 ± ε-jitter); the margin here
		// asserts the shape without pinning one trajectory's luck — exact
		// outputs are pinned by the golden tests instead.
		if last := s.Y[len(s.Y)-1]; last < 0.55 {
			t.Fatalf("%s: dense-network ratio %v too low", s.Label, last)
		}
	}
}

func TestFig3RatioApproachesOne(t *testing.T) {
	fig, err := Fig3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var ratio Series
	for _, s := range fig.Series {
		if s.Label == "Ratio" {
			ratio = s
		}
	}
	if len(ratio.Y) == 0 {
		t.Fatal("no ratio series")
	}
	for i, y := range ratio.Y {
		if y < 1-1e-9 || y > 1.35 {
			t.Fatalf("ratio %v out of plausible band at x=%v", y, ratio.X[i])
		}
	}
	// Largest size should be within ~15% of the bound.
	if last := ratio.Y[len(ratio.Y)-1]; last > 1.15 {
		t.Fatalf("ratio at max size %v, want closer to 1", last)
	}
}

func TestFig4cPeakAtProportional(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver figure; skipped in -short")
	}
	fig, err := Fig4c(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		yAt1, ok := valueAt(s, 1.0)
		if !ok {
			t.Fatalf("%s: no x=1 point", s.Label)
		}
		if math.Abs(yAt1-1) > 1e-9 {
			// Peak-normalized: x=1 should be the (or near the) peak.
			if yAt1 < 0.95 {
				t.Fatalf("%s: proportional placement %v not near peak", s.Label, yAt1)
			}
		}
		// Extremes fall off.
		if edge, ok := valueAt(s, 1.6); ok && edge > yAt1 {
			t.Fatalf("%s: skewed placement (%v) beats proportional (%v)", s.Label, edge, yAt1)
		}
	}
}

func TestFig6cPlateauAndDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver figure; skipped in -short")
	}
	fig, err := Fig6c(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if s.Label == "300 Servers" {
			continue // lightly-loaded case may not drop in the quick grid
		}
		low, okLow := valueAt(s, 0.2)
		mid, okMid := valueAt(s, 1.0)
		hi, okHi := valueAt(s, 1.5)
		if !okMid {
			t.Fatalf("%s: missing x=1", s.Label)
		}
		if okLow && low > 0.7*mid {
			t.Fatalf("%s: no drop at sparse cut (%v vs %v)", s.Label, low, mid)
		}
		if okHi && math.Abs(hi-mid) > 0.15 {
			t.Fatalf("%s: plateau not flat (%v vs %v)", s.Label, hi, mid)
		}
	}
}

func TestFig11ThresholdAnnotated(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver figure; skipped in -short")
	}
	o := quickOpts()
	fig, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) == 0 {
		t.Fatal("no series")
	}
	for _, s := range fig.Series {
		if !strings.Contains(s.Note, "C̄*") {
			t.Fatalf("%s: missing threshold note", s.Label)
		}
		// Normalization: peak is 1.
		var peak float64
		for _, y := range s.Y {
			if y > peak {
				peak = y
			}
		}
		if math.Abs(peak-1) > 1e-9 {
			t.Fatalf("%s: peak %v != 1", s.Label, peak)
		}
	}
}

func TestFig13PacketWithinFewPercent(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-sim figure; skipped in -short")
	}
	fig, err := Fig13(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	flow, pkt := fig.Series[0], fig.Series[1]
	for i := range flow.X {
		gap := math.Abs(flow.Y[i] - pkt.Y[i])
		if gap > 0.15 {
			t.Fatalf("DA=%v: packet %v vs flow %v differ by %v", flow.X[i], pkt.Y[i], flow.Y[i], gap)
		}
	}
}

func TestLabelSeedStable(t *testing.T) {
	a, b := labelSeed("3:1 Port-ratio"), labelSeed("3:1 Port-ratio")
	if a != b || a < 0 {
		t.Fatalf("labelSeed unstable or negative: %d %d", a, b)
	}
	if labelSeed("x") == labelSeed("y") {
		t.Fatal("distinct labels collided (unlucky but fix the hash)")
	}
}

func TestNormalizeZeroSafe(t *testing.T) {
	s := Series{X: []float64{1, 2}, Y: []float64{0, 0}, Err: []float64{0.5, 0}}
	normalize(&s, peak(s))
	if !reflect.DeepEqual(s.Y, []float64{0, 0}) || !reflect.DeepEqual(s.Err, []float64{0.5, 0}) {
		t.Fatalf("zero-reference normalization changed the values: Y %v, Err %v", s.Y, s.Err)
	}
	normalize(&s, 0.5)
	if !reflect.DeepEqual(s.Err, []float64{1, 0}) {
		t.Fatalf("Err not divided by the reference: %v", s.Err)
	}
}

// TestFamilyInfeasibleDropsFromOwnCurve folds a two-curve family whose
// first curve has one unrealizable x (no 3-regular graph has 5 nodes):
// that x drops from its own curve only, and every other point keeps its
// place and value.
func TestFamilyInfeasibleDropsFromOwnCurve(t *testing.T) {
	o := quickOpts().withDefaults()
	aspl := func(n, r int) scenario.Point {
		return scenario.Point{
			Topo: &scenario.RRG{N: n, Deg: r}, Traffic: scenario.None{}, Eval: scenario.ASPL{},
			Seed: int64(n*100 + r), SeedFactor: 1, Runs: o.Runs,
		}
	}
	var f family
	for _, n := range []int{5, 6} {
		c := f.newCurve(fmt.Sprintf("n=%d", n))
		for _, r := range []int{2, 3, 4} {
			f.add(c, float64(r), aspl(n, r))
		}
	}
	got, err := f.measure(o.sweepEngine())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Label != "n=5" || got[1].Label != "n=6" {
		t.Fatalf("curves out of order: %+v", got)
	}
	if !reflect.DeepEqual(got[0].X, []float64{2, 4}) || !reflect.DeepEqual(got[1].X, []float64{2, 3, 4}) {
		t.Fatalf("x values: n=5 %v, n=6 %v; want [2 4] and [2 3 4]", got[0].X, got[1].X)
	}
	for _, s := range got {
		n := 5
		if s.Label == "n=6" {
			n = 6
		}
		for i, x := range s.X {
			want, err := o.engine().MeasureOne(aspl(n, int(x)))
			if err != nil {
				t.Fatal(err)
			}
			if s.Y[i] != want.Mean || s.Err[i] != want.Std {
				t.Fatalf("%s at x=%v: got (%v, %v), measured alone (%v, %v)", s.Label, x, s.Y[i], s.Err[i], want.Mean, want.Std)
			}
		}
	}
	if _, err := f.measure(o.engine()); err == nil {
		t.Fatal("the non-skipping engine accepted an infeasible point")
	}
}
