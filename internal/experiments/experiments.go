// Package experiments regenerates every figure of the paper's evaluation.
// Each Fig* function returns a Figure whose series mirror the curves the
// paper plots; the topobench command and the repository benchmarks wrap
// these runners.
//
// Options.Quick trades point density and run counts for speed while
// preserving each figure's qualitative shape; the defaults reproduce the
// paper's full parameter grids with 20 runs per point.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/scenario"
)

// Options configures all experiment runners.
type Options struct {
	// Runs per data point (default 20, the paper's count; Quick uses 3).
	Runs int
	// Seed is the base RNG seed (default 1).
	Seed int64
	// Epsilon is the flow-solver approximation parameter (default 0.08;
	// Quick uses 0.12).
	Epsilon float64
	// Quick reduces grids and runs for fast regeneration (benchmarks).
	Quick bool
	// Cache is the content-addressed solve cache the figure's scenario
	// points are memoized in. nil gives every figure invocation a private
	// cache: instances shared within one figure (e.g. a sizing search
	// repeated across chunky fractions) still solve once, while repeated
	// invocations — benchmarks, the parallel-vs-serial determinism tests —
	// measure real work. Pass one cache to every figure (as topobench does)
	// to share solves across figures in one process. Cached values are
	// byte-identical to cold solves, so this field never changes output.
	Cache *scenario.Cache
}

func (o Options) withDefaults() Options {
	if o.Cache == nil {
		o.Cache = scenario.NewCache()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Runs <= 0 {
		if o.Quick {
			o.Runs = 3
		} else {
			o.Runs = 20
		}
	}
	if o.Epsilon <= 0 {
		if o.Quick {
			o.Epsilon = 0.12
		} else {
			o.Epsilon = 0.08
		}
	}
	return o
}

// Series is one curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	// Err holds one standard deviation per point (empty when not
	// applicable).
	Err []float64
	// Note carries per-series annotations such as the Fig. 11 C̄*
	// threshold position.
	Note string
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string // e.g. "6a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// TSV writes the figure as tab-separated values, one block per series.
func (f *Figure) TSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# Figure %s: %s\n# x: %s\n# y: %s\n", f.ID, f.Title, f.XLabel, f.YLabel); err != nil {
		return err
	}
	for _, s := range f.Series {
		if _, err := fmt.Fprintf(w, "\n# series: %s\n", s.Label); err != nil {
			return err
		}
		if s.Note != "" {
			if _, err := fmt.Fprintf(w, "# note: %s\n", s.Note); err != nil {
				return err
			}
		}
		for i := range s.X {
			var b strings.Builder
			fmt.Fprintf(&b, "%g\t%g", s.X[i], s.Y[i])
			if i < len(s.Err) {
				fmt.Fprintf(&b, "\t%g", s.Err[i])
			}
			if _, err := fmt.Fprintln(w, b.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Runner regenerates one figure.
type Runner func(Options) (*Figure, error)

// Registry maps figure IDs to their runners.
var Registry = map[string]Runner{
	"1a":  Fig1a,
	"1b":  Fig1b,
	"2a":  Fig2a,
	"2b":  Fig2b,
	"3":   Fig3,
	"4a":  Fig4a,
	"4b":  Fig4b,
	"4c":  Fig4c,
	"5":   Fig5,
	"6a":  Fig6a,
	"6b":  Fig6b,
	"6c":  Fig6c,
	"7a":  Fig7a,
	"7b":  Fig7b,
	"8a":  Fig8a,
	"8b":  Fig8b,
	"8c":  Fig8c,
	"9a":  Fig9a,
	"9b":  Fig9b,
	"9c":  Fig9c,
	"10a": Fig10a,
	"10b": Fig10b,
	"11":  Fig11,
	"12a": Fig12a,
	"12b": Fig12b,
	"12c": Fig12c,
	"13":  Fig13,
}

// IDs returns the registered figure IDs in display order.
func IDs() []string {
	return []string{
		"1a", "1b", "2a", "2b", "3",
		"4a", "4b", "4c", "5",
		"6a", "6b", "6c", "7a", "7b",
		"8a", "8b", "8c",
		"9a", "9b", "9c",
		"10a", "10b", "11",
		"12a", "12b", "12c", "13",
	}
}
