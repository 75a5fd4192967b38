package flowcheck

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/packet"
	"repro/internal/rrg"
	"repro/internal/traffic"
)

func solved(t *testing.T) (*graph.Graph, []traffic.Flow, *mcf.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	g, err := rrg.Regular(rng, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		g.SetServers(u, 2)
	}
	tm := traffic.Permutation(rng, traffic.HostsOf(g))
	res, err := mcf.Solve(g, tm.Flows, mcf.Options{Epsilon: 0.08, RecordPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	return g, tm.Flows, res
}

func TestVerifyPassesOnHonestSolve(t *testing.T) {
	g, flows, res := solved(t)
	rep, err := Verify(g, flows, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("honest solve rejected:\n%s", rep)
	}
	if rep.PathCount == 0 {
		t.Fatal("no paths examined despite RecordPaths")
	}
	for _, c := range rep.Checks {
		if c.Skipped {
			t.Fatalf("check %s skipped despite full inputs", c.Name)
		}
	}
}

// A verifier that cannot detect violations certifies nothing: tamper with
// each invariant and demand the matching check fails.
func TestVerifyDetectsOverload(t *testing.T) {
	g, flows, res := solved(t)
	a := 0
	res.ArcFlow[a] = g.Arc(a).Cap * 1.5
	rep, err := Verify(g, flows, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("overloaded arc not detected")
	}
	if !strings.Contains(rep.Err().Error(), "capacity") {
		t.Fatalf("wrong check failed: %v", rep.Err())
	}
}

func TestVerifyDetectsInflatedThroughput(t *testing.T) {
	g, flows, res := solved(t)
	res.Throughput *= 1.2 // claims more than the delivered volumes
	rep, err := Verify(g, flows, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("inflated throughput not detected")
	}
	if !strings.Contains(rep.Err().Error(), "demand") {
		t.Fatalf("wrong check failed: %v", rep.Err())
	}
}

func TestVerifyDetectsBrokenConservation(t *testing.T) {
	g, flows, res := solved(t)
	// Teleport flow: bump one arc's flow without a matching path. Both the
	// decomposition sum and node balance break; either check may fire first.
	res.ArcFlow[4] += 0.5
	rep, err := Verify(g, flows, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("teleported flow not detected")
	}
}

func TestVerifyDetectsBrokenPath(t *testing.T) {
	g, flows, res := solved(t)
	res.Paths[0].Arcs = res.Paths[0].Arcs[:len(res.Paths[0].Arcs)-1] // no longer reaches dst
	rep, err := Verify(g, flows, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("truncated path not detected")
	}
	if !strings.Contains(rep.Err().Error(), "decomposition") {
		t.Fatalf("wrong check failed: %v", rep.Err())
	}
}

func TestVerifyDetectsOptimalityGap(t *testing.T) {
	g, flows, res := solved(t)
	// Claim far less than the dual bound allows: scale the whole flow down.
	for a := range res.ArcFlow {
		res.ArcFlow[a] *= 0.5
	}
	for i := range res.Paths {
		res.Paths[i].Flow *= 0.5
	}
	res.Throughput *= 0.5
	rep, err := Verify(g, flows, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("large optimality gap not detected")
	}
	if !strings.Contains(rep.Err().Error(), "optimality") {
		t.Fatalf("wrong check failed: %v", rep.Err())
	}
}

func TestVerifyWithoutPathsSkips(t *testing.T) {
	g, flows, res := solved(t)
	res.Paths = nil
	rep, err := Verify(g, flows, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("pathless verify failed:\n%s", rep)
	}
	skipped := 0
	for _, c := range rep.Checks {
		if c.Skipped {
			skipped++
		}
	}
	if skipped != 3 { // decomposition, conservation, demand
		t.Fatalf("want 3 skipped checks, got %d:\n%s", skipped, rep)
	}
}

func TestVerifyEmptyInstance(t *testing.T) {
	g := graph.New(2)
	g.AddLink(0, 1, 1)
	res, err := mcf.Solve(g, nil, mcf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(g, nil, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("empty instance rejected:\n%s", rep)
	}
}

// TestVerifyPathsWithoutArcFlow: a malformed result carrying paths but no
// ArcFlow must fail the decomposition check, not panic.
func TestVerifyPathsWithoutArcFlow(t *testing.T) {
	g, flows, res := solved(t)
	res.ArcFlow = nil
	rep, err := Verify(g, flows, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("paths without ArcFlow accepted")
	}
	if !strings.Contains(rep.Err().Error(), "decomposition") {
		t.Fatalf("wrong check failed: %v", rep.Err())
	}
}

// ---- packet-simulation conservation checks ----

// simulated runs a small packet simulation whose audit the verifier can
// certify.
func simulated(t *testing.T) (*graph.Graph, *packet.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	g, err := rrg.Regular(rng, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Two flows per source over small queues so the measurement window
	// contains drop-tail losses — the conservation identity's hardest term.
	var flows []packet.FlowSpec
	for i := 0; i < 16; i++ {
		flows = append(flows,
			packet.FlowSpec{Src: i, Dst: (i + 7) % 16},
			packet.FlowSpec{Src: i, Dst: (i + 3) % 16})
	}
	res, err := packet.Simulate(g, flows, packet.Config{
		SubflowsPerFlow: 4, Warmup: 20, Measure: 80, QueuePackets: 8,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

func TestVerifyPacketPassesOnHonestSimulation(t *testing.T) {
	g, res := simulated(t)
	rep, err := VerifyPacketReport(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("honest simulation failed verification:\n%s", rep)
	}
	if res.Delivered == 0 {
		t.Fatal("simulation delivered nothing; conservation check is vacuous")
	}
}

func TestVerifyPacketDetectsTeleportedPacket(t *testing.T) {
	g, res := simulated(t)
	// A packet delivered out of thin air: delivery count grows with no
	// matching arrival.
	res.Audit.NodeDelivered[3]++
	rep, err := VerifyPacketReport(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(rep.Err().Error(), "conservation") {
		t.Fatalf("teleported packet not caught: %v", rep.Err())
	}
}

func TestVerifyPacketDetectsDroppedAccounting(t *testing.T) {
	g, res := simulated(t)
	// Erase one drop-tail loss: the node now attempted fewer next hops
	// than it received packets.
	erased := false
	for a := range res.Audit.ArcDropped {
		if res.Audit.ArcDropped[a] > 0 {
			res.Audit.ArcDropped[a]--
			erased = true
			break
		}
	}
	if !erased {
		t.Fatal("fixture recorded no measurement-window drops; tamper is vacuous")
	}
	rep, err := VerifyPacketReport(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(rep.Err().Error(), "conservation") {
		t.Fatalf("erased drop not caught: %v", rep.Err())
	}
}

func TestVerifyPacketDetectsLineRateViolation(t *testing.T) {
	g, res := simulated(t)
	// An arc claiming more completed transmissions than its capacity
	// admits in the window. Forge matching enqueues at the sender and
	// deliveries at the receiver so plain conservation still balances —
	// only the line-rate check can see it.
	arc := 0
	from, to := g.Arc(arc).From, g.Arc(arc).To
	extra := int64(g.Arc(arc).Cap*res.Audit.Measure) + 10
	res.Audit.ArcTransits[arc] += extra
	res.Audit.ArcEnqueued[arc] += extra
	res.Audit.NodeInjected[from] += extra
	res.Audit.NodeDelivered[to] += extra
	rep, err := VerifyPacketReport(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(rep.Err().Error(), "linerate") {
		t.Fatalf("line-rate violation not caught: %v", rep.Err())
	}
}

func TestVerifyPacketDetectsInflatedGoodput(t *testing.T) {
	g, res := simulated(t)
	res.Flows[0].Goodput *= 2
	rep, err := VerifyPacketReport(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(rep.Err().Error(), "goodput") {
		t.Fatalf("inflated goodput not caught: %v", rep.Err())
	}
}

func TestVerifyPacketDetectsNegativeCounter(t *testing.T) {
	g, res := simulated(t)
	res.Audit.NodeInjected[0] = -1
	rep, err := VerifyPacketReport(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(rep.Err().Error(), "counters") {
		t.Fatalf("negative counter not caught: %v", rep.Err())
	}
}

func TestVerifyPacketShapeMismatch(t *testing.T) {
	g, res := simulated(t)
	res.Audit.ArcTransits = res.Audit.ArcTransits[:len(res.Audit.ArcTransits)-1]
	if _, err := VerifyPacketReport(g, res); err == nil {
		t.Fatal("arc counter shape mismatch accepted")
	}
	_, res2 := simulated(t)
	res2.Audit = nil
	if _, err := VerifyPacketReport(g, res2); err == nil {
		t.Fatal("missing audit accepted for a non-empty simulation")
	}
}
