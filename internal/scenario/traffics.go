package scenario

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// Built-in traffic registry entries, wrapping internal/traffic. All
// server-level generators derive placements via traffic.HostsOf and draw
// from the run's stream right after the topology build.
func init() {
	RegisterTraffic("permutation", func(p Params) (Traffic, error) {
		return Permutation{}, p.Reader().Err()
	})
	RegisterTraffic("all-to-all", func(p Params) (Traffic, error) {
		return AllToAll{}, p.Reader().Err()
	})
	RegisterTraffic("chunky", parseChunky)
	RegisterTraffic("hotspot", parseHotspot)
	RegisterTraffic("bipartite", parseBipartite)
	RegisterTraffic("none", func(p Params) (Traffic, error) {
		return None{}, p.Reader().Err()
	})
}

// Permutation is random permutation traffic among servers (the paper's
// default workload, §3).
type Permutation struct{}

func (Permutation) Spec() string { return "permutation" }

func (Permutation) Matrix(rng *rand.Rand, g *graph.Graph) (*traffic.Matrix, error) {
	return traffic.Permutation(rng, traffic.HostsOf(g)), nil
}

// AllToAll is all-to-all traffic among servers.
type AllToAll struct{}

func (AllToAll) Spec() string { return "all-to-all" }

func (AllToAll) Matrix(rng *rand.Rand, g *graph.Graph) (*traffic.Matrix, error) {
	return traffic.AllToAll(traffic.HostsOf(g)), nil
}

// Chunky is the §8.1 x% Chunky pattern.
type Chunky struct{ Frac float64 }

func (t Chunky) Spec() string { return FormatSpec("chunky", "frac", FloatParam(t.Frac)) }

func (t Chunky) Matrix(rng *rand.Rand, g *graph.Graph) (*traffic.Matrix, error) {
	return traffic.Chunky(rng, traffic.HostsOf(g), t.Frac)
}

func parseChunky(p Params) (Traffic, error) {
	r := p.Reader()
	t := Chunky{Frac: r.Float("frac", 1)}
	return t, r.Err()
}

// Hotspot sends a fraction of all servers to one hot destination while the
// rest run a permutation — a workload present in internal/traffic that no
// paper figure exercises; the scenario registry makes it reachable.
type Hotspot struct{ Frac float64 }

func (t Hotspot) Spec() string { return FormatSpec("hotspot", "frac", FloatParam(t.Frac)) }

func (t Hotspot) Matrix(rng *rand.Rand, g *graph.Graph) (*traffic.Matrix, error) {
	return traffic.Hotspot(rng, traffic.HostsOf(g), t.Frac)
}

func parseHotspot(p Params) (Traffic, error) {
	r := p.Reader()
	t := Hotspot{Frac: r.Float("frac", 0.25)}
	return t, r.Err()
}

// Bipartite is the Theorem 2 demand K_{V1,V2}: one unit between every
// ordered pair crossing the (first n1 switches | rest) partition,
// regardless of server placement.
type Bipartite struct{ N1 int }

func (t Bipartite) Spec() string { return FormatSpec("bipartite", "n1", IntParam(t.N1)) }

func (t Bipartite) Matrix(rng *rand.Rand, g *graph.Graph) (*traffic.Matrix, error) {
	m := &traffic.Matrix{}
	for u := 0; u < t.N1; u++ {
		for v := t.N1; v < g.N(); v++ {
			m.Flows = append(m.Flows,
				traffic.Flow{Src: u, Dst: v, Demand: 1},
				traffic.Flow{Src: v, Dst: u, Demand: 1},
			)
		}
	}
	m.ServerFlows = len(m.Flows)
	return m, nil
}

func parseBipartite(p Params) (Traffic, error) {
	r := p.Reader()
	t := Bipartite{N1: r.Int("n1", 12)}
	return t, r.Err()
}

// None is the empty workload, for evaluators that measure the topology
// itself (aspl, bisection).
type None struct{}

func (None) Spec() string { return "none" }

func (None) Matrix(rng *rand.Rand, g *graph.Graph) (*traffic.Matrix, error) { return nil, nil }
