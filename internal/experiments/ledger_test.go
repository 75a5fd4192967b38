package experiments

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// claimsLedger states paper claims as inequalities over a figure's quick
// output on the golden options, one row per figure: the claim, its place
// in the paper, and the check. A tolerance comes from ε, never from the
// figure's bytes, so a deliberate solver drift that regenerates the
// goldens must still pass every row unchanged.
var claimsLedger = []struct {
	fig, place, claim string
	check             func(fig *Figure, eps float64) error
}{
	{"2a", "§4, Fig. 2(a)", "random regular graphs stay near the Theorem 1 throughput bound as they grow", checkFig2a},
	{"9a", "§6.1, Fig. 9(a)", "utilization tracks throughput best", checkFig9a},
}

func TestClaimsLedger(t *testing.T) {
	eps := goldenOpts().withDefaults().Epsilon
	for _, row := range claimsLedger {
		t.Run("fig"+row.fig, func(t *testing.T) {
			if err := row.check(goldenRun(t, row.fig), eps); err != nil {
				t.Fatalf("Fig. %s (%s), %q: %v", row.fig, row.place, row.claim, err)
			}
		})
	}
}

// checkFig2a: every throughput ratio to its Theorem 1 bound lies in
// [1 − 3ε, 1]. The upper end is the theorem applied to a feasible flow
// (the solver scales its flow by congestion), so it takes no tolerance;
// the lower end is the optimality gap flowcheck certifies, 3ε.
func checkFig2a(fig *Figure, eps float64) error {
	if len(fig.Series) == 0 {
		return fmt.Errorf("no series")
	}
	for _, s := range fig.Series {
		for i, y := range s.Y {
			if y > 1 || y < 1-3*eps {
				return fmt.Errorf("%s at N = %g: ratio %v outside [%v, 1]", s.Label, s.X[i], y, 1-3*eps)
			}
		}
	}
	return nil
}

// checkFig9a: summed over the x axis, |Utilization − Throughput| is
// smaller than the same sum for Inverse SPL and for Inverse Stretch.
func checkFig9a(fig *Figure, _ float64) error {
	series := map[string]Series{}
	for _, s := range fig.Series {
		series[s.Label] = s
	}
	tput, ok := series["Throughput"]
	if !ok {
		return fmt.Errorf("no Throughput series")
	}
	dist := func(label string) (float64, error) {
		s, ok := series[label]
		if !ok || !slices.Equal(s.X, tput.X) {
			return 0, fmt.Errorf("series %q missing or not on Throughput's x axis", label)
		}
		var d float64
		for i, y := range s.Y {
			d += math.Abs(y - tput.Y[i])
		}
		return d, nil
	}
	util, err := dist("Utilization")
	if err != nil {
		return err
	}
	for _, other := range []string{"Inverse SPL", "Inverse Stretch"} {
		d, err := dist(other)
		if err != nil {
			return err
		}
		if util >= d {
			return fmt.Errorf("Σ|Utilization − Throughput| = %.3f, not below Σ|%s − Throughput| = %.3f", util, other, d)
		}
	}
	return nil
}
