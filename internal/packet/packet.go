// Package packet is a discrete-event packet-level network simulator with an
// MPTCP-like multipath transport, used to reproduce Fig. 13: the paper
// shows that packet-level throughput with MPTCP over shortest paths lands
// within a few percent of the fluid (LP) optimum.
//
// Substitution note (see DESIGN.md): the paper uses the htsim MPTCP
// simulator. We implement the same mechanism from scratch: each flow opens
// up to SubflowsPerFlow subflows over distinct shortest paths; each subflow
// runs window-based additive-increase/multiplicative-decrease congestion
// control with NewReno-style one-halving-per-window loss recovery; links
// are FIFO drop-tail queues. ACKs return instantly (the reverse direction
// of every full-duplex link has dedicated capacity, so ACK congestion is
// negligible at these scales).
//
// Units: one capacity unit transmits one packet per unit time; a link of
// capacity c serializes a packet in 1/c time.
package packet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Config controls a simulation.
type Config struct {
	// SubflowsPerFlow is the number of MPTCP subflows (paper: up to 8).
	SubflowsPerFlow int
	// QueuePackets is the per-arc FIFO capacity in packets (default 64).
	QueuePackets int
	// Warmup and Measure are the warmup and measurement durations in unit
	// times (defaults 100 and 400).
	Warmup, Measure float64
	// MaxWindow caps the window (default 256).
	MaxWindow float64
}

const (
	// initialWindow is a subflow's initial congestion window.
	initialWindow = 2
	// retransmitDelay is the pause, in unit times, before a subflow
	// resumes sending after a loss, emulating a retransmission timeout.
	retransmitDelay = 1
)

func (c Config) withDefaults() Config {
	if c.SubflowsPerFlow <= 0 {
		c.SubflowsPerFlow = 8
	}
	if c.QueuePackets <= 0 {
		c.QueuePackets = 64
	}
	if c.Warmup <= 0 {
		c.Warmup = 100
	}
	if c.Measure <= 0 {
		c.Measure = 400
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 256
	}
	return c
}

// FlowSpec is one transport flow: an infinite backlog from Src to Dst
// (switch IDs). Rate goals are not needed — goodput is measured.
type FlowSpec struct {
	Src, Dst int
}

// FlowResult reports one flow's measured goodput in capacity units.
type FlowResult struct {
	FlowSpec
	Goodput  float64
	Subflows int
}

// Result is the outcome of a simulation.
type Result struct {
	Flows []FlowResult
	// MeanGoodput and MinGoodput summarize per-flow goodput.
	MeanGoodput, MinGoodput float64
	// Delivered is the total number of packets delivered in the
	// measurement window; Dropped counts drop-tail losses over the whole
	// simulation.
	Delivered, Dropped int64
	// Audit is the measurement-window packet accounting that
	// flowcheck.VerifyPacket certifies (per-node conservation, line-rate
	// sanity, goodput consistency).
	Audit *Audit
}

// Audit is the event-level packet accounting of the measurement window.
// Each counter is bumped atomically with the event it describes, so the
// exact per-node conservation identity holds for every node v:
//
//	NodeInjected[v] + Σ_{a into v} ArcTransits[a]
//	  = NodeDelivered[v] + Σ_{a out of v} (ArcEnqueued[a] + ArcDropped[a])
//
// — every packet at v either was injected there or arrived over an
// incoming arc, and either terminated there or attempted the next hop
// (successfully or as a drop-tail loss). flowcheck.VerifyPacket replays
// this identity from first principles.
type Audit struct {
	// ArcEnqueued counts successful queue admissions per arc; ArcDropped
	// counts drop-tail losses at that arc's queue; ArcTransits counts
	// completed transmissions.
	ArcEnqueued, ArcDropped, ArcTransits []int64
	// NodeInjected counts packets a source pumped into its first hop
	// (whether or not admission succeeded); NodeDelivered counts packets
	// terminating at the node.
	NodeInjected, NodeDelivered []int64
	// Measure is the measurement-window duration the counters cover.
	Measure float64
}

// Simulate runs the packet simulation of the given flows on g.
func Simulate(g *graph.Graph, flows []FlowSpec, cfg Config, rng *rand.Rand) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(flows) == 0 {
		return &Result{}, nil
	}
	s := &sim{g: g, cfg: cfg, rng: rng}
	if err := s.setup(flows); err != nil {
		return nil, err
	}
	s.run()
	return s.collect(), nil
}

// ---- internal machinery ----

type eventKind uint8

const (
	evTransmitDone eventKind = iota
	evPump
)

type event struct {
	t    float64
	kind eventKind
	arc  int32
	sub  *subflow // evPump only
	seq  int64    // tiebreaker for determinism
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// pkt is an in-flight packet.
type pkt struct {
	sub  *subflow
	hop  int // index into sub.path of the next arc to traverse
	id   int64
	lost bool
}

// arcState is the FIFO queue and transmitter of one directed arc.
type arcState struct {
	rate  float64 // packets per unit time
	queue []*pkt
	busy  bool
}

// subflow is one MPTCP subflow with NewReno-ish AIMD.
type subflow struct {
	flow     *flowState
	path     []int32 // arc indices src -> dst
	cwnd     float64
	inflight int
	nextID   int64
	recover  int64   // loss-recovery high-water mark
	backoff  float64 // no sends before this time (post-loss timeout)
	pumpAt   float64 // time of the latest scheduled pump event
}

type flowState struct {
	spec      FlowSpec
	subs      []*subflow
	delivered int64 // packets delivered during measurement
}

type sim struct {
	g     *graph.Graph
	cfg   Config
	rng   *rand.Rand
	arcs  []arcState
	flows []*flowState
	h     eventHeap
	now   float64
	seq   int64

	measuring bool
	dropped   int64
	delivered int64
	audit     Audit
}

func (s *sim) setup(flows []FlowSpec) error {
	s.arcs = make([]arcState, s.g.NumArcs())
	s.audit = Audit{
		ArcEnqueued:   make([]int64, s.g.NumArcs()),
		ArcDropped:    make([]int64, s.g.NumArcs()),
		ArcTransits:   make([]int64, s.g.NumArcs()),
		NodeInjected:  make([]int64, s.g.N()),
		NodeDelivered: make([]int64, s.g.N()),
		Measure:       s.cfg.Measure,
	}
	for a := range s.arcs {
		s.arcs[a].rate = s.g.Arc(a).Cap
	}
	for _, fs := range flows {
		if fs.Src == fs.Dst {
			return fmt.Errorf("packet: flow with identical endpoints %d", fs.Src)
		}
		paths := s.g.ShortestPathDAGPaths(fs.Src, fs.Dst, 4*s.cfg.SubflowsPerFlow)
		if len(paths) == 0 {
			return fmt.Errorf("packet: no path %d -> %d", fs.Src, fs.Dst)
		}
		// Spread subflows across distinct paths; sample without
		// replacement, reusing paths round-robin when fewer exist.
		s.rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
		f := &flowState{spec: fs}
		for k := 0; k < s.cfg.SubflowsPerFlow; k++ {
			p := paths[k%len(paths)]
			arcs := make([]int32, len(p))
			copy(arcs, p)
			f.subs = append(f.subs, &subflow{flow: f, path: arcs, cwnd: initialWindow})
		}
		s.flows = append(s.flows, f)
	}
	return nil
}

func (s *sim) run() {
	heap.Init(&s.h)
	// Prime every subflow.
	for _, f := range s.flows {
		for _, sub := range f.subs {
			s.pump(sub)
		}
	}
	end := s.cfg.Warmup + s.cfg.Measure
	for s.h.Len() > 0 {
		ev := heap.Pop(&s.h).(event)
		s.now = ev.t
		if s.now > end {
			return
		}
		if !s.measuring && s.now >= s.cfg.Warmup {
			s.measuring = true
			s.delivered = 0
			for _, f := range s.flows {
				f.delivered = 0
			}
		}
		switch ev.kind {
		case evTransmitDone:
			s.transmitDone(int(ev.arc))
		case evPump:
			s.pump(ev.sub)
		}
	}
}

// pump injects packets while the window allows and the subflow is not in
// a post-loss timeout. A drop at the first hop ends the burst: the subflow
// backs off and a pump event is scheduled, never recursing.
func (s *sim) pump(sub *subflow) {
	if s.now < sub.backoff {
		s.schedulePump(sub, sub.backoff)
		return
	}
	for sub.inflight < int(sub.cwnd) {
		p := &pkt{sub: sub, id: sub.nextID}
		sub.nextID++
		sub.inflight++
		if s.measuring {
			s.audit.NodeInjected[sub.flow.spec.Src]++
		}
		if !s.tryEnqueue(p, 0) {
			s.registerLoss(p)
			return
		}
	}
}

// schedulePump arranges for pump(sub) to run at time t (deduplicated).
func (s *sim) schedulePump(sub *subflow, t float64) {
	if sub.pumpAt >= t && sub.pumpAt > s.now {
		return
	}
	sub.pumpAt = t
	s.seq++
	heap.Push(&s.h, event{t: t, kind: evPump, sub: sub, seq: s.seq})
}

// tryEnqueue places p on its hop-th arc; false means drop-tail loss.
func (s *sim) tryEnqueue(p *pkt, hop int) bool {
	p.hop = hop
	a := int(p.sub.path[hop])
	as := &s.arcs[a]
	if len(as.queue) >= s.cfg.QueuePackets {
		if s.measuring {
			s.audit.ArcDropped[a]++
		}
		return false
	}
	if s.measuring {
		s.audit.ArcEnqueued[a]++
	}
	as.queue = append(as.queue, p)
	if !as.busy {
		s.startTransmit(a)
	}
	return true
}

func (s *sim) startTransmit(a int) {
	as := &s.arcs[a]
	as.busy = true
	s.seq++
	heap.Push(&s.h, event{t: s.now + 1/as.rate, kind: evTransmitDone, arc: int32(a), seq: s.seq})
}

func (s *sim) transmitDone(a int) {
	as := &s.arcs[a]
	p := as.queue[0]
	as.queue = as.queue[1:]
	if s.measuring {
		s.audit.ArcTransits[a]++
	}
	if len(as.queue) > 0 {
		s.startTransmit(a)
	} else {
		as.busy = false
	}
	if p.hop+1 < len(p.sub.path) {
		if !s.tryEnqueue(p, p.hop+1) {
			s.registerLoss(p)
		}
		return
	}
	s.onDelivered(p)
}

// onDelivered handles a packet reaching its destination: instant ACK.
func (s *sim) onDelivered(p *pkt) {
	sub := p.sub
	sub.inflight--
	if s.measuring {
		sub.flow.delivered++
		s.delivered++
		s.audit.NodeDelivered[sub.flow.spec.Dst]++
	}
	// Additive increase: +1 window per window's worth of ACKs, capped.
	if sub.cwnd < s.cfg.MaxWindow {
		sub.cwnd += 1 / sub.cwnd
	}
	s.pump(sub)
}

// registerLoss applies one multiplicative decrease per window (NewReno-
// style recovery: further losses below the recovery mark do not halve
// again) and backs the subflow off for a retransmission timeout. The lost
// packet is retransmitted implicitly: goodput counts deliveries, and the
// window re-injects after the backoff.
func (s *sim) registerLoss(p *pkt) {
	s.dropped++
	sub := p.sub
	sub.inflight--
	if p.id >= sub.recover {
		sub.cwnd /= 2
		if sub.cwnd < 1 {
			sub.cwnd = 1
		}
		sub.recover = sub.nextID
	}
	sub.backoff = s.now + retransmitDelay
	s.schedulePump(sub, sub.backoff)
}

func (s *sim) collect() *Result {
	audit := s.audit
	res := &Result{Delivered: s.delivered, Dropped: s.dropped, Audit: &audit}
	res.MinGoodput = -1
	var sum float64
	for _, f := range s.flows {
		gp := float64(f.delivered) / s.cfg.Measure
		res.Flows = append(res.Flows, FlowResult{FlowSpec: f.spec, Goodput: gp, Subflows: len(f.subs)})
		sum += gp
		if res.MinGoodput < 0 || gp < res.MinGoodput {
			res.MinGoodput = gp
		}
	}
	sort.Slice(res.Flows, func(i, j int) bool {
		if res.Flows[i].Src != res.Flows[j].Src {
			return res.Flows[i].Src < res.Flows[j].Src
		}
		return res.Flows[i].Dst < res.Flows[j].Dst
	})
	if len(res.Flows) > 0 {
		res.MeanGoodput = sum / float64(len(res.Flows))
	}
	if res.MinGoodput < 0 {
		res.MinGoodput = 0
	}
	return res
}
