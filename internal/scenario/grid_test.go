package scenario

import (
	"math"
	"strings"
	"testing"
)

// TestParseGridBounds pins what a grid line may ask for: ε in [0, 0.5),
// non-negative runs, and at most MaxGridRuns point-runs — each checked
// before any sweep value or point is materialized. Every line names a
// traffic, so each case tests its own bound, not the traffic rule.
func TestParseGridBounds(t *testing.T) {
	for _, tc := range []struct {
		line   string
		points int // 0: the line must be rejected
	}{
		{"topo=rrg traffic=permutation eps=NaN", 0},
		{"topo=rrg traffic=permutation eps=nan", 0},
		{"topo=rrg traffic=permutation eps=-1", 0},
		{"topo=rrg traffic=permutation eps=0.5", 0},
		{"topo=rrg traffic=permutation eps=0.7", 0},
		{"topo=rrg traffic=permutation eps=Inf", 0},
		{"topo=rrg traffic=permutation eps=-Inf", 0},
		{"topo=rrg traffic=permutation eps=1e400", 0},
		{"topo=rrg traffic=permutation eps=0", 1},
		{"topo=rrg traffic=permutation eps=0.49", 1},
		{"topo=rrg traffic=permutation runs=-1", 0},
		{"topo=rrg traffic=permutation runs=0", 1},
		{"topo=rrg traffic=permutation runs=4096", 1},
		{"topo=rrg traffic=permutation runs=4097", 0},
		{"topo=rrg traffic=permutation runs=1000000000", 0},
		{"topo=rrg traffic=permutation sweep=deg:0..2000000000", 0},
		{"topo=rrg traffic=permutation sweep=deg:0..9223372036854775807", 0},
		{"topo=rrg traffic=permutation sweep=deg:-9223372036854775808..9223372036854775807", 0},
		{"topo=rrg traffic=permutation sweep=deg:0..9223372036854775807:9223372036854775807", 2},
		{"topo=rrg traffic=permutation sweep=deg:9223372036854775806..9223372036854775807", 2},
		{"topo=rrg traffic=permutation runs=1 sweep=deg:0..4095", 4096},
		{"topo=rrg traffic=permutation runs=1 sweep=deg:0..4096", 0},
		{"topo=rrg traffic=permutation runs=1 sweep=deg:0..8190:2", 4096},
		{"topo=rrg traffic=permutation runs=2 sweep=deg:0..2047", 2048},
		{"topo=rrg traffic=permutation runs=2 sweep=deg:0..2048", 0},
		{"topo=rrg traffic=permutation runs=1 sweep=deg:0..63 sweep=sps:0..63", 4096},
		{"topo=rrg traffic=permutation runs=1 sweep=deg:0..63 sweep=sps:0..64", 0},
		{"topo=rrg traffic=permutation sweep=deg:0..99 sweep=sps:0..99 sweep=n:0..99 sweep=deg:0..99", 0},
		{"topo=rrg traffic=permutation runs=1" + strings.Repeat(" sweep=deg:0..4095", 6), 0}, // 4096^6 wraps int64 to 0
		{"topo=rrg traffic=permutation runs=1 sweep=deg:" + strings.Repeat("4,", 4095) + "4", 4096},
		{"topo=rrg traffic=permutation runs=1 sweep=deg:" + strings.Repeat("4,", 4096) + "4", 0},
	} {
		name := tc.line
		if len(name) > 80 {
			name = name[:80] + "…"
		}
		g, err := ParseGrid(tc.line)
		var gps []GridPoint
		if err == nil {
			gps, err = g.Points()
		}
		if tc.points == 0 {
			if err == nil {
				t.Errorf("%s: accepted with %d points", name, len(gps))
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(gps) != tc.points {
			t.Errorf("%s: %d points, want %d", name, len(gps), tc.points)
		}
	}
}

// TestPointsNeedTrafficToReadIt: a point whose evaluator reads the traffic
// matrix is rejected when its traffic is none (the default), with an error
// naming the evaluator, instead of evaluating against a nil matrix.
func TestPointsNeedTrafficToReadIt(t *testing.T) {
	const topo = "topo=rrg:n=10,deg=4,sps=1"
	for _, tc := range []struct {
		rest   string
		reject string // the evaluator the error names; "" when the line is valid
	}{
		{"", "eval=mcf"},
		{" traffic=none eval=packet", "eval=packet:"},
		{" traffic=none eval=failures:eval=mcf", "eval=failures:"},
		{" traffic=none eval=failures:eval=packet", "eval=failures:"},
		{" traffic=none eval=failures:eval=aspl sweep=eval.eval:aspl,mcf", "eval=failures:"},
		{" traffic=none eval=failures:eval=aspl", ""},
		{" traffic=none eval=bisection", ""},
		{" traffic=permutation", ""},
	} {
		line := topo + tc.rest
		g, err := ParseGrid(line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		_, err = g.Points()
		if tc.reject == "" {
			if err != nil {
				t.Errorf("%s: %v", line, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.reject) || !strings.Contains(err.Error(), "traffic=") {
			t.Errorf("%s: error %v, want one naming %s and traffic=", line, err, tc.reject)
		}
	}
}

// FuzzParseGrid: no grid line panics the parser or the point expansion,
// and an accepted grid has a finite ε in [0, 0.5) and at most MaxGridRuns
// point-runs.
func FuzzParseGrid(f *testing.F) {
	for _, line := range []string{
		"topo=rrg:n=40,deg=10,sps=5 traffic=permutation eval=mcf sweep=deg:6..14:4 runs=2",
		"topo=plrrg:n=40,avg=8,kmax=16,sfrac=0.4 traffic=hotspot:frac=0.3 eval=mcf sweep=traffic.frac:0.1,0.3,0.5 runs=2",
		"topo=vl2:da=8,di=8 traffic=none eval=bisection sweep=da:4..12:2 runs=1",
		"topo=rrg:n=24,deg=8,sps=2 traffic=permutation eval=failures:eval=mcf sweep=eval.frac:0,0.1,0.2 runs=2",
		"topo=expand:n=24,deg=8,sps=2 traffic=permutation eval=mcf sweep=steps:0..4:2 runs=2",
		"topo=rrg:n=24,deg=8,sps=2 traffic=permutation eval=failures:frac=0,eval=mcf sweep=eval.frac:0,0.1,0.2 runs=2 eps=0.12 seed=1",
		"topo=rrg:n=24,deg=8,sps=2 traffic=permutation eval=mcf sweep=deg:6..12:2 runs=2 eps=0.12 seed=1",
		"topo=rrg:n=20,deg=6,sps=3 traffic=permutation eval=mcf sweep=deg:4..8:2 runs=2 seed=7",
		"topo=plrrg:n=20,avg=6,kmax=12,sfrac=0.4 traffic=permutation eval=mcf sweep=avg:5,6,7 runs=2 seed=7",
		"topo=vl2:da=8,di=8 traffic=permutation eval=mcf sweep=da:10..14:2 runs=2 seed=7",
		"topo=rewired-vl2:da=8,di=8 traffic=permutation eval=mcf sweep=da:12..16:2 runs=2 seed=7",
		"topo=rrg:n=32,deg=8,sps=4 traffic=permutation eval=failures:frac=0.1,eval=mcf runs=1 seed=7",
		"topo=rrg:n=12,deg=4,sps=2 traffic=permutation eval=mcf sweep=deg:3..5 runs=2 seed=7",
		"topo=rrg eps=NaN",
		"topo=rrg sweep=deg:0..9223372036854775807",
		"topo=rrg runs=1000000000",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		g, err := ParseGrid(line)
		if err != nil {
			return
		}
		if math.IsNaN(g.Epsilon) || g.Epsilon < 0 || g.Epsilon >= 0.5 {
			t.Fatalf("%q: accepted eps=%v", line, g.Epsilon)
		}
		gps, err := g.Points()
		if err != nil {
			return
		}
		if n := len(gps) * gps[0].runs(); n > MaxGridRuns {
			t.Fatalf("%q: accepted %d point-runs", line, n)
		}
	})
}
