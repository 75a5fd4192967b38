package scenario

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// parseFunc runs a spec through one registry.
type parseFunc = func(string) (interface{ Spec() string }, error)

// specParsers are the three registries' parsers: topology, traffic and
// evaluator, in the order of registrySpecs.
var specParsers = [3]parseFunc{
	func(s string) (interface{ Spec() string }, error) { return ParseTopology(s) },
	func(s string) (interface{ Spec() string }, error) { return ParseTraffic(s) },
	func(s string) (interface{ Spec() string }, error) { return ParseEvaluator(s) },
}

// registrySpecs are accepted specs of every registry kind, one list per
// parser in specParsers.
var registrySpecs = [3][]string{
	{
		"rrg",
		"rrg:n=400,deg=10",
		"rrg:sps=5,n=40,deg=10", // key order does not matter
		"plrrg:n=40,avg=8,kmax=16,sfrac=0.4,beta=1.2,pseed=7",
		"hetero:nl=20,ns=30,pl=30,ps=20,servers=480,ratio=1.3",
		"vl2:da=8,di=8",
		"rewired-vl2:da=10,di=16,tors=50",
		"fattree:k=6",
		"hypercube:dim=5,sps=2",
		"torus:a=4,b=6",
		"jellyfish:n=40,ports=15,deg=10",
		"twocluster:n=12,deg=6,cross=8",
		"expand",
		"expand:n=20,deg=6,sps=2,steps=4,cap=2",
	},
	{
		"permutation", "all-to-all", "chunky:frac=0.6",
		"hotspot:frac=0.25", "bipartite:n1=12", "none",
	},
	{
		"mcf", "aspl", "bisection:trials=8",
		"packet:subflows=4,warmup=40,measure=160", "cut:n1=12",
		"failures",
		"failures:frac=0.1,eval=mcf",
		"failures:frac=0.15,eval=bisection/trials=8",
	},
}

// reparse checks the canonicalization fixed point of a parsed spec: its
// Spec() parses to a reflect.DeepEqual value that prints the same Spec().
func reparse(parse parseFunc, first interface{ Spec() string }) error {
	canonical := first.Spec()
	second, err := parse(canonical)
	if err != nil {
		return fmt.Errorf("re-parse %q: %v", canonical, err)
	}
	if got := second.Spec(); got != canonical {
		return fmt.Errorf("not a canonical fixed point: %q -> %q", canonical, got)
	}
	if !reflect.DeepEqual(first, second) {
		return fmt.Errorf("canonical re-parse of %q differs: %+v vs %+v", canonical, first, second)
	}
	return nil
}

// TestRegistryRoundTrip pins the canonicalization fixed point: parsing a
// spec and reprinting it yields a spec that parses to an identical
// scenario and reprints identically (spec → scenario → spec is stable
// after one canonicalization).
func TestRegistryRoundTrip(t *testing.T) {
	for i, parse := range specParsers {
		for _, spec := range registrySpecs[i] {
			first, err := parse(spec)
			if err != nil {
				t.Fatalf("parse %q: %v", spec, err)
			}
			if err := reparse(parse, first); err != nil {
				t.Errorf("spec %q: %v", spec, err)
			}
		}
	}
}

// FuzzParseSpec: no spec panics a registry parser, and every spec a
// parser accepts canonicalizes to a fixed point. The NaN seeds pin the
// finite-number rule: a NaN parameter never equals itself, so it could
// not round-trip.
func FuzzParseSpec(f *testing.F) {
	for _, specs := range registrySpecs {
		for _, spec := range specs {
			f.Add(spec)
		}
	}
	f.Add("chunky:frac=NaN")
	f.Add("hetero:cross=NaN")
	f.Fuzz(func(t *testing.T, spec string) {
		for _, parse := range specParsers {
			first, err := parse(spec)
			if err != nil {
				continue
			}
			if err := reparse(parse, first); err != nil {
				t.Fatalf("spec %q: %v", spec, err)
			}
		}
	})
}

// TestRegistryRejectsUnknown pins the error paths: unknown kinds, unknown
// parameters, and malformed values must all fail loudly.
func TestRegistryRejectsUnknown(t *testing.T) {
	if _, err := ParseTopology("nope:n=4"); err == nil {
		t.Error("unknown topology kind accepted")
	}
	if _, err := ParseTopology("rrg:dge=10"); err == nil || !strings.Contains(err.Error(), "unknown parameter") {
		t.Errorf("typo parameter not rejected: %v", err)
	}
	if _, err := ParseTopology("rrg:n=ten"); err == nil {
		t.Error("malformed integer accepted")
	}
	if _, err := ParseTraffic("chunky:frac=much"); err == nil {
		t.Error("malformed float accepted")
	}
	if _, err := ParseEvaluator("packet:subflows=4,subflows=8"); err == nil {
		t.Error("duplicate parameter accepted")
	}
	if _, err := ParseEvaluator("failures:eval=nope"); err == nil {
		t.Error("failures with unknown inner evaluator accepted")
	}
	if _, err := ParseEvaluator("failures:eval=failures"); err == nil {
		t.Error("self-nested failures evaluator accepted")
	}
	if _, err := ParseTraffic("nope"); err == nil {
		t.Error("unknown traffic kind accepted")
	}
	// Non-finite and out-of-range fractions and negative sizes fail at
	// parse time, naming the parameter, before any point is built (a
	// negative size used to panic inside Build, or read as 0).
	for _, tc := range []struct{ line, param string }{
		{"topo=rrg:n=16,deg=4,sps=2 traffic=chunky:frac=NaN eval=mcf runs=1", "frac"},
		{"topo=rrg:n=16,deg=4,sps=2 traffic=permutation eval=failures:frac=NaN,eval=mcf runs=1", "frac"},
		{"topo=hetero:nl=6,ns=8,pl=10,ps=6,servers=30,cross=NaN traffic=permutation eval=mcf runs=1", "cross"},
		{"topo=rrg:n=16,deg=4,sps=2 traffic=hotspot:frac=NaN eval=mcf runs=1", "frac"},
		{"topo=rrg:n=16,deg=4,sps=2 traffic=permutation eval=failures:frac=-0.5,eval=mcf runs=1", "frac"},
		{"topo=rrg:n=16,deg=4,sps=2 traffic=permutation eval=failures:frac=inf,eval=mcf runs=1", "frac"},
		{"topo=twocluster:n=-4 eval=cut runs=1", "n"},
		{"topo=twocluster:n=6,deg=3,cross=-1 eval=cut runs=1", "cross"},
		{"topo=hypercube:dim=3,sps=-1 traffic=permutation eval=mcf runs=1", "sps"},
		{"topo=torus:a=3,b=3,sps=-1 traffic=permutation eval=mcf runs=1", "sps"},
		{"topo=vl2:da=4,di=4,sptor=-1 traffic=permutation eval=mcf runs=1", "sptor"},
		{"topo=rewired-vl2:da=4,di=4,tors=-1 traffic=permutation eval=mcf runs=1", "tors"},
		{"topo=rrg:n=10,deg=4,sps=-2 traffic=permutation eval=mcf runs=1", "sps"},
		{"topo=rrg:n=10,deg=-4,sps=1 traffic=permutation eval=mcf runs=1", "deg"},
		{"topo=jellyfish:n=-10 traffic=permutation eval=mcf runs=1", "n"},
		{"topo=expand:n=10,deg=4,sps=-1 traffic=permutation eval=mcf runs=1", "sps"},
		{"topo=plrrg:n=-5,sfrac=0.4 traffic=permutation eval=mcf runs=1", "n"},
	} {
		g, err := ParseGrid(tc.line)
		if err == nil {
			_, err = g.Points()
		}
		if err == nil || !strings.Contains(err.Error(), tc.param+"=") {
			t.Errorf("%s: want an error naming %s, got %v", tc.line, tc.param, err)
		}
	}
}

// TestGridRejectsUnknownTraffic: a grid line naming an unregistered
// traffic kind fails before any point is built, and the error lists the
// registered kinds.
func TestGridRejectsUnknownTraffic(t *testing.T) {
	g, err := ParseGrid("topo=rrg:n=10,deg=4,sps=2 traffic=workload99 eval=mcf runs=1")
	if err == nil {
		_, err = g.Points()
	}
	if err == nil {
		t.Fatal("unknown traffic kind accepted")
	}
	for _, kind := range TrafficKinds() {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not list traffic kind %q", err, kind)
		}
	}
}

// TestFailuresEvaluator pins the failure wrapper's semantics: frac=0 is
// the intact metric, higher fractions are deterministic per (point, run)
// and never above the intact value for mcf throughput.
func TestFailuresEvaluator(t *testing.T) {
	run := func(spec string) []float64 {
		t.Helper()
		ev, err := ParseEvaluator(spec)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := ParseTopology("rrg:n=16,deg=6,sps=2")
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{}
		vals, err := e.MeasureRuns([]Point{{
			Topo: topo, Traffic: Permutation{}, Eval: ev,
			Seed: 4, Runs: 2, Epsilon: 0.12,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return vals[0]
	}
	intact := run("mcf")
	zero := run("failures:frac=0,eval=mcf")
	if !reflect.DeepEqual(intact, zero) {
		t.Fatalf("frac=0 differs from intact metric: %v vs %v", zero, intact)
	}
	failedA := run("failures:frac=0.2,eval=mcf")
	failedB := run("failures:frac=0.2,eval=mcf")
	if !reflect.DeepEqual(failedA, failedB) {
		t.Fatalf("failure pattern not deterministic: %v vs %v", failedA, failedB)
	}
	for i, v := range failedA {
		if v > intact[i]*(1+0.2) { // losing links cannot raise λ beyond ε jitter
			t.Fatalf("run %d: throughput rose under failures: %v -> %v", i, intact[i], v)
		}
	}
}

// TestExpandTopology pins the expansion topology: steps new switches,
// original degrees preserved, servers attached to the new switches.
func TestExpandTopology(t *testing.T) {
	topo, err := ParseTopology("expand:n=20,deg=6,sps=2,steps=3")
	if err != nil {
		t.Fatal(err)
	}
	g, err := topo.Build(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 23 {
		t.Fatalf("expanded to %d switches, want 23", g.N())
	}
	for u := 0; u < g.N(); u++ {
		if g.Servers(u) != 2 {
			t.Fatalf("switch %d has %d servers, want 2", u, g.Servers(u))
		}
	}
	if !g.IsConnected() {
		t.Fatal("expanded graph disconnected")
	}
	// An expanded point runs end-to-end through the engine.
	e := &Engine{}
	vals, err := e.MeasureRuns([]Point{{
		Topo: topo, Traffic: Permutation{}, Eval: MCF{}, Seed: 2, Runs: 1, Epsilon: 0.12,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals[0]) != 1 || vals[0][0] <= 0 {
		t.Fatalf("expanded point evaluation: %v", vals)
	}
}

// TestGridPoints pins the declarative grid materialization: axis product,
// parameter overriding, per-point seed derivation.
func TestGridPoints(t *testing.T) {
	g := Grid{
		Topo:    "rrg:n=20,sps=2",
		Traffic: "permutation",
		Eval:    "mcf",
		Sweep: []Axis{
			{Target: "topo", Param: "deg", Values: []string{"4", "6"}},
			{Target: "traffic", Param: "frac", Values: []string{"0.2", "0.8"}},
		},
		Runs: 2, Seed: 9,
	}
	g.Traffic = "chunky:frac=0.5"
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	wantTopo := []string{"rrg:n=20,deg=4,sps=2", "rrg:n=20,deg=4,sps=2", "rrg:n=20,deg=6,sps=2", "rrg:n=20,deg=6,sps=2"}
	wantTraffic := []string{"chunky:frac=0.2", "chunky:frac=0.8", "chunky:frac=0.2", "chunky:frac=0.8"}
	for i, p := range pts {
		if got := p.Topo.Spec(); got != wantTopo[i] {
			t.Errorf("point %d topo %q, want %q", i, got, wantTopo[i])
		}
		if got := p.Traffic.Spec(); got != wantTraffic[i] {
			t.Errorf("point %d traffic %q, want %q", i, got, wantTraffic[i])
		}
		if p.Seed != 9+int64(i) {
			t.Errorf("point %d seed %d, want %d", i, p.Seed, 9+int64(i))
		}
		if len(p.Coords) != 2 {
			t.Errorf("point %d coords %v", i, p.Coords)
		}
	}
}

// TestParseGrid pins the -scenario line grammar.
func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("topo=rrg:n=400,deg=10 traffic=permutation eval=mcf sweep=deg:4..16:4 runs=5 seed=3 eps=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if g.Topo != "rrg:n=400,deg=10" || g.Traffic != "permutation" || g.Eval != "mcf" {
		t.Fatalf("specs wrong: %+v", g)
	}
	if g.Runs != 5 || g.Seed != 3 || g.Epsilon != 0.1 {
		t.Fatalf("controls wrong: %+v", g)
	}
	if len(g.Sweep) != 1 || !reflect.DeepEqual(g.Sweep[0].Values, []string{"4", "8", "12", "16"}) {
		t.Fatalf("sweep wrong: %+v", g.Sweep)
	}
	if _, err := ParseGrid("traffic=permutation"); err == nil {
		t.Error("grid without topo accepted")
	}
	if _, err := ParseGrid("topo=rrg bogus=1"); err == nil {
		t.Error("unknown grid key accepted")
	}
	if _, err := ParseGrid("topo=rrg sweep=deg:16..4"); err == nil {
		t.Error("inverted sweep range accepted")
	}
	// List sweeps and target prefixes.
	g, err = ParseGrid("topo=rrg traffic=chunky:frac=1 sweep=traffic.frac:0.2,0.6,1.0")
	if err != nil {
		t.Fatal(err)
	}
	if g.Sweep[0].Target != "traffic" || g.Sweep[0].Param != "frac" || len(g.Sweep[0].Values) != 3 {
		t.Fatalf("prefixed sweep wrong: %+v", g.Sweep[0])
	}
}
