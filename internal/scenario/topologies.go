package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/rrg"
	"repro/internal/topo"
)

// Built-in topology registry entries. Each wraps one constructor of the
// topo/rrg/hetero layer; the experiment runners and topobench -scenario
// address them through the same specs.
func init() {
	RegisterTopology("rrg", parseRRG)
	RegisterTopology("plrrg", parsePowerLawRRG)
	RegisterTopology("hetero", parseHetero)
	RegisterTopology("vl2", parseVL2)
	RegisterTopology("rewired-vl2", parseRewiredVL2)
	RegisterTopology("fattree", parseFatTree)
	RegisterTopology("hypercube", parseHypercube)
	RegisterTopology("torus", parseTorus)
	RegisterTopology("jellyfish", parseJellyfish)
	RegisterTopology("twocluster", parseTwoCluster)
	RegisterTopology("expand", parseExpand)
}

// RRG is the paper's homogeneous design: a uniform random regular graph of
// n switches with network degree deg, hosting sps servers per switch.
type RRG struct {
	N, Deg, SPS int
}

func (t *RRG) Spec() string {
	return FormatSpec("rrg", "n", IntParam(t.N), "deg", IntParam(t.Deg), "sps", IntParam(t.SPS))
}

func (t *RRG) Build(rng *rand.Rand) (*graph.Graph, error) {
	g, err := rrg.Regular(rng, t.N, t.Deg)
	if err != nil {
		return nil, err
	}
	if t.SPS > 0 {
		for u := 0; u < t.N; u++ {
			g.SetServers(u, t.SPS)
		}
	}
	return g, nil
}

func parseRRG(p Params) (Topology, error) {
	r := p.Reader()
	t := &RRG{N: r.count("n", 40), Deg: r.count("deg", 10), SPS: r.count("sps", 0)}
	return t, r.Err()
}

// PowerLawRRG draws a power-law port sequence (exponent gamma, ports in
// [kmin, kmax], mean avg) deterministically from pseed, wires it as a
// random graph, and attaches servers in proportion to degree^beta (§5's
// power-law extension, Fig. 5). Servers may be given explicitly or as
// sfrac (fraction of total ports).
type PowerLawRRG struct {
	N          int
	Avg, Gamma float64
	Kmin, Kmax int
	Servers    int     // explicit server count; 0 means use SFrac
	SFrac      float64 // servers as a fraction of total ports
	Beta       float64
	PortSeed   int64 // seed of the port-sequence draw (shared across runs)
}

func (t *PowerLawRRG) Spec() string {
	return FormatSpec("plrrg",
		"n", IntParam(t.N), "avg", FloatParam(t.Avg), "gamma", FloatParam(t.Gamma),
		"kmin", IntParam(t.Kmin), "kmax", IntParam(t.Kmax),
		"servers", IntParam(t.Servers), "sfrac", FloatParam(t.SFrac),
		"beta", FloatParam(t.Beta), "pseed", fmt.Sprint(t.PortSeed))
}

// Ports returns the deterministic port sequence of the spec (every run
// shares it, so sweeps isolate the effect of beta as Fig. 5 requires).
func (t *PowerLawRRG) Ports() ([]int, error) {
	return rrg.PowerLawDegrees(rand.New(rand.NewSource(t.PortSeed)), t.N, t.Avg, t.Gamma, t.Kmin, t.Kmax)
}

func (t *PowerLawRRG) Build(rng *rand.Rand) (*graph.Graph, error) {
	ports, err := t.Ports()
	if err != nil {
		return nil, err
	}
	servers := t.Servers
	if servers == 0 && t.SFrac > 0 {
		total := 0
		for _, p := range ports {
			total += p
		}
		servers = int(t.SFrac * float64(total))
	}
	return hetero.BuildPowerLaw(rng, ports, servers, t.Beta)
}

func parsePowerLawRRG(p Params) (Topology, error) {
	r := p.Reader()
	t := &PowerLawRRG{
		N: r.count("n", 40), Avg: r.Float("avg", 8), Gamma: r.Float("gamma", 2.2),
		Kmin: r.Int("kmin", 3), Kmax: r.Int("kmax", 20),
		Servers: r.Int("servers", 0), SFrac: r.Float("sfrac", 0),
		Beta: r.Float("beta", 1), PortSeed: r.Int64("pseed", 1),
	}
	return t, r.Err()
}

// Hetero wraps the §5 two-switch-type design framework (hetero.Config):
// switch pools, server split (explicit or ratio-driven), cross-cluster
// volume, and optional high line-speed links among the large switches.
type Hetero struct {
	Cfg hetero.Config
}

func (t *Hetero) Spec() string {
	c := t.Cfg
	return FormatSpec("hetero",
		"nl", IntParam(c.NumLarge), "ns", IntParam(c.NumSmall),
		"pl", IntParam(c.PortsLarge), "ps", IntParam(c.PortsSmall),
		"servers", IntParam(c.Servers),
		"spl", IntParam(c.ServersPerLarge), "sps", IntParam(c.ServersPerSmall),
		"ratio", FloatParam(c.ServerRatio), "cross", FloatParam(c.CrossRatio),
		"hl", IntParam(c.HighLinksPerLarge), "hc", FloatParam(c.HighCap))
}

func (t *Hetero) Build(rng *rand.Rand) (*graph.Graph, error) {
	return hetero.Build(rng, t.Cfg)
}

func parseHetero(p Params) (Topology, error) {
	r := p.Reader()
	t := &Hetero{Cfg: hetero.Config{
		NumLarge: r.Int("nl", 20), NumSmall: r.Int("ns", 40),
		PortsLarge: r.Int("pl", 30), PortsSmall: r.Int("ps", 10),
		Servers:         r.Int("servers", 0),
		ServersPerLarge: r.Int("spl", -1), ServersPerSmall: r.Int("sps", -1),
		ServerRatio: r.Float("ratio", 0), CrossRatio: r.Float("cross", 0),
		HighLinksPerLarge: r.Int("hl", 0), HighCap: r.Float("hc", 0),
	}}
	return t, r.Err()
}

// VL2 is the standard VL2 fabric of §7 with an arbitrary ToR count
// (tors=0 means the designed DA·DI/4).
type VL2 struct {
	DA, DI, ToRs, ServersPerToR int
}

func (t *VL2) Spec() string {
	return FormatSpec("vl2",
		"da", IntParam(t.DA), "di", IntParam(t.DI),
		"tors", IntParam(t.ToRs), "sptor", IntParam(t.ServersPerToR))
}

func (t *VL2) Build(rng *rand.Rand) (*graph.Graph, error) {
	cfg := topo.VL2Config{DA: t.DA, DI: t.DI, ServersPerToR: t.ServersPerToR}
	tors := t.ToRs
	if tors == 0 {
		tors = cfg.NumToRs()
	}
	return topo.VL2WithToRs(cfg, tors)
}

func parseVL2(p Params) (Topology, error) {
	r := p.Reader()
	t := &VL2{DA: r.Int("da", 8), DI: r.Int("di", 8), ToRs: r.count("tors", 0), ServersPerToR: r.count("sptor", 0)}
	return t, r.Err()
}

// RewiredVL2 is the paper's §7 rewiring of the VL2 equipment pool.
type RewiredVL2 struct {
	DA, DI, ToRs, ServersPerToR int
}

func (t *RewiredVL2) Spec() string {
	return FormatSpec("rewired-vl2",
		"da", IntParam(t.DA), "di", IntParam(t.DI),
		"tors", IntParam(t.ToRs), "sptor", IntParam(t.ServersPerToR))
}

func (t *RewiredVL2) Build(rng *rand.Rand) (*graph.Graph, error) {
	cfg := topo.VL2Config{DA: t.DA, DI: t.DI, ServersPerToR: t.ServersPerToR}
	tors := t.ToRs
	if tors == 0 {
		tors = cfg.NumToRs()
	}
	return topo.RewiredVL2(rng, cfg, tors)
}

func parseRewiredVL2(p Params) (Topology, error) {
	r := p.Reader()
	t := &RewiredVL2{DA: r.Int("da", 8), DI: r.Int("di", 8), ToRs: r.count("tors", 0), ServersPerToR: r.count("sptor", 0)}
	return t, r.Err()
}

// FatTree is the k-ary fat-tree (servers set by the constructor).
type FatTree struct{ K int }

func (t *FatTree) Spec() string { return FormatSpec("fattree", "k", IntParam(t.K)) }

func (t *FatTree) Build(rng *rand.Rand) (*graph.Graph, error) { return topo.FatTree(t.K) }

func parseFatTree(p Params) (Topology, error) {
	r := p.Reader()
	t := &FatTree{K: r.Int("k", 4)}
	return t, r.Err()
}

// Hypercube is the dim-dimensional hypercube with sps servers per node.
type Hypercube struct{ Dim, SPS int }

func (t *Hypercube) Spec() string {
	return FormatSpec("hypercube", "dim", IntParam(t.Dim), "sps", IntParam(t.SPS))
}

func (t *Hypercube) Build(rng *rand.Rand) (*graph.Graph, error) {
	g, err := topo.Hypercube(t.Dim)
	if err != nil {
		return nil, err
	}
	for u := 0; u < g.N(); u++ {
		g.SetServers(u, t.SPS)
	}
	return g, nil
}

func parseHypercube(p Params) (Topology, error) {
	r := p.Reader()
	t := &Hypercube{Dim: r.Int("dim", 6), SPS: r.count("sps", 1)}
	return t, r.Err()
}

// Torus is the a×b 2D torus with sps servers per node.
type Torus struct{ A, B, SPS int }

func (t *Torus) Spec() string {
	return FormatSpec("torus", "a", IntParam(t.A), "b", IntParam(t.B), "sps", IntParam(t.SPS))
}

func (t *Torus) Build(rng *rand.Rand) (*graph.Graph, error) {
	g, err := topo.Torus2D(t.A, t.B)
	if err != nil {
		return nil, err
	}
	for u := 0; u < g.N(); u++ {
		g.SetServers(u, t.SPS)
	}
	return g, nil
}

func parseTorus(p Params) (Topology, error) {
	r := p.Reader()
	t := &Torus{A: r.Int("a", 8), B: r.Int("b", 8), SPS: r.count("sps", 1)}
	return t, r.Err()
}

// Jellyfish is RRG(n, ports, deg) with ports-deg servers per switch.
type Jellyfish struct{ N, Ports, Deg int }

func (t *Jellyfish) Spec() string {
	return FormatSpec("jellyfish", "n", IntParam(t.N), "ports", IntParam(t.Ports), "deg", IntParam(t.Deg))
}

func (t *Jellyfish) Build(rng *rand.Rand) (*graph.Graph, error) {
	return topo.Jellyfish(rng, t.N, t.Ports, t.Deg)
}

func parseJellyfish(p Params) (Topology, error) {
	r := p.Reader()
	t := &Jellyfish{N: r.count("n", 40), Ports: r.Int("ports", 15), Deg: r.count("deg", 10)}
	return t, r.Err()
}

// TwoCluster is the Theorem 2 setting: two clusters of n constant-degree
// nodes each, cross cross-cluster links (snapped to feasibility), unit
// capacities, no servers.
type TwoCluster struct{ N, Deg, Cross int }

func (t *TwoCluster) Spec() string {
	return FormatSpec("twocluster", "n", IntParam(t.N), "deg", IntParam(t.Deg), "cross", IntParam(t.Cross))
}

func (t *TwoCluster) Build(rng *rand.Rand) (*graph.Graph, error) {
	deg := make([]int, t.N)
	for i := range deg {
		deg[i] = t.Deg
	}
	x, err := rrg.FeasibleCross(t.Cross, t.N*t.Deg, t.N*t.Deg)
	if err != nil {
		return nil, err
	}
	return rrg.TwoCluster(rng, rrg.TwoClusterSpec{DegA: deg, DegB: deg, CrossLinks: x, LinkCap: 1})
}

func parseTwoCluster(p Params) (Topology, error) {
	r := p.Reader()
	t := &TwoCluster{N: r.count("n", 12), Deg: r.count("deg", 6), Cross: r.count("cross", 8)}
	return t, r.Err()
}

// Expand is the paper's §2 incremental-expansion story made sweepable: an
// RRG of n switches (degree deg, sps servers each) grown by steps
// additional switches via rrg.ExpandWithSwitch — each new switch joins by
// breaking deg/2 random existing links and rewiring both halves to
// itself, leaving existing degrees untouched. New switches get the same
// sps servers and links of capacity cap. Sweeping steps measures how
// throughput evolves as a deployed fabric grows (deg must be even; odd
// values are infeasible sweep points).
type Expand struct {
	N, Deg, SPS, Steps int
	Cap                float64
}

func (t *Expand) Spec() string {
	return FormatSpec("expand",
		"n", IntParam(t.N), "deg", IntParam(t.Deg), "sps", IntParam(t.SPS),
		"steps", IntParam(t.Steps), "cap", FloatParam(t.Cap))
}

func (t *Expand) Build(rng *rand.Rand) (*graph.Graph, error) {
	g, err := rrg.Regular(rng, t.N, t.Deg)
	if err != nil {
		return nil, err
	}
	if t.SPS > 0 {
		for u := 0; u < t.N; u++ {
			g.SetServers(u, t.SPS)
		}
	}
	g, err = rrg.ExpandBy(rng, g, t.Steps, t.Deg, t.Cap)
	if err != nil {
		return nil, err
	}
	if t.SPS > 0 {
		for u := t.N; u < g.N(); u++ {
			g.SetServers(u, t.SPS)
		}
	}
	return g, nil
}

// ParentTopology makes an expansion step delta-shaped: the parent is the
// same growth at steps−1. Both points build from the same RNG stream, so
// the first steps−1 expansions are draw-for-draw identical and the parent
// graph is the child graph minus the last switch — its witness maps onto
// the child by surviving-link matching, with the rewired and new links
// taking the solver's neutral prior.
func (t *Expand) ParentTopology() (Topology, bool) {
	if t.Steps <= 0 {
		return nil, false
	}
	p := *t
	p.Steps--
	return &p, true
}

func parseExpand(p Params) (Topology, error) {
	r := p.Reader()
	t := &Expand{
		N: r.count("n", 40), Deg: r.count("deg", 10), SPS: r.count("sps", 0),
		Steps: r.Int("steps", 1), Cap: r.Float("cap", 1),
	}
	return t, r.Err()
}
