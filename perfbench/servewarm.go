package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"

	"repro/internal/service"
	"repro/internal/store"
)

// The serve-warm workload: a daemon answers only work it already has.
const (
	warmGrids = 48   // grids primed in set-up
	warmPass  = 4096 // ops per pass
	warmGrid  = "topo=rrg:n=12,deg=4,sps=2 traffic=permutation eval=mcf sweep=deg:3..5 runs=2 seed=%d"
)

// warmOp is one serve-warm op: an eval of grid g, or (tbrs) a TBRS fetch
// of point pt of grid g.
type warmOp struct {
	tbrs  bool
	g, pt int
}

// warmOps is the seed-fixed op list: evals and TBRS fetches alternate;
// grids are drawn zipf over the primed universe, points uniformly.
func warmOps(seed int64, n int) []warmOp {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 1, warmGrids-1)
	ops := make([]warmOp, n)
	for i := range ops {
		ops[i] = warmOp{tbrs: i%2 == 1, g: int(z.Uint64()), pt: rng.Intn(3)}
	}
	return ops
}

type serveWarm struct {
	seed int64
	list []warmOp
	d    *daemon
	// Per primed grid: the request body, the set-up answer bytes and its
	// decoded points.
	bodies [][]byte
	raw    [][]byte
	resp   []*service.EvalResponse

	// Traced decomposition.
	hits0, miss0 float64
	handlerUs    []float64
	loopbackUs   []float64
	loadUs       []float64
	buf          []byte
	vals         []float64
}

func newServeWarm(seed int64, _ string) workload { return &serveWarm{seed: seed} }

func (s *serveWarm) ops() int     { return len(s.list) }
func (s *serveWarm) reset() error { return nil }

func (s *serveWarm) close() {
	s.d.close()
	s.d = nil
}

// setup starts a daemon over a fresh store and primes it with every
// grid of the universe, keeping each answer as the reference bytes.
func (s *serveWarm) setup(dir string) error {
	s.close()
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	s.d = d
	s.list = warmOps(s.seed, warmPass)
	s.bodies = make([][]byte, warmGrids)
	s.raw = make([][]byte, warmGrids)
	s.resp = make([]*service.EvalResponse, warmGrids)
	for g := range s.bodies {
		s.bodies[g] = evalBody(fmt.Sprintf(warmGrid, 1+s.seed*1000+int64(g)*10))
		if s.raw[g], s.resp[g], err = d.eval(s.bodies[g]); err != nil {
			return fmt.Errorf("priming grid %d: %w", g, err)
		}
		if len(s.resp[g].Points) != 3 {
			return fmt.Errorf("grid %d answered %d points, want 3", g, len(s.resp[g].Points))
		}
	}
	return nil
}

// request builds op o's HTTP request against base.
func (s *serveWarm) request(o warmOp, base string) *http.Request {
	if o.tbrs {
		return tbrsRequest(base, s.resp[o.g].Points[o.pt].Key)
	}
	return evalRequest(base, s.bodies[o.g])
}

// check requires an eval answer byte-identical to its set-up bytes, and
// a TBRS answer that decodes to the point's values in that answer.
func (s *serveWarm) check(o warmOp, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("answered %d", status)
	}
	if !o.tbrs {
		if !bytes.Equal(body, s.raw[o.g]) {
			return fmt.Errorf("eval of grid %d differs from its set-up bytes", o.g)
		}
		return nil
	}
	vals, parent, ok := store.DecodeEntry(body)
	want := s.resp[o.g].Points[o.pt].Values
	if !ok || parent != "" || len(vals) != len(want) {
		return fmt.Errorf("TBRS entry of grid %d point %d does not decode to its values", o.g, o.pt)
	}
	for i := range vals {
		if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("TBRS entry of grid %d point %d: value %d is %v, want %v", o.g, o.pt, i, vals[i], want[i])
		}
	}
	return nil
}

func (s *serveWarm) op(i int, t *tracer) error {
	o := s.list[i]
	root := t.begin(i, 0, "op")
	defer t.end(root)
	var status int
	var body []byte
	var err error
	if t != nil && s.handlerUs == nil {
		m, merr := s.d.counters("response_bytes_cache_hits_total", "response_bytes_cache_misses_total")
		if merr != nil {
			return merr
		}
		s.hits0, s.miss0 = m["response_bytes_cache_hits_total"], m["response_bytes_cache_misses_total"]
	}
	e2e := t.timed(i, root, "e2e", func() { status, body, err = s.d.do(s.request(o, s.d.base)) })
	if err != nil {
		return err
	}
	if err := s.check(o, status, body); err != nil {
		return err
	}
	if t == nil {
		return nil
	}
	// Decomposition: the same request through the handler with no
	// socket, and for a fetch the store read behind it.
	rec := httptest.NewRecorder()
	req := s.request(o, "http://perfbench")
	h := t.timed(i, root, "service.handler", func() { s.d.handler.ServeHTTP(rec, req) })
	if err := s.check(o, rec.Code, rec.Body.Bytes()); err != nil {
		return fmt.Errorf("handler: %w", err)
	}
	s.handlerUs = append(s.handlerUs, float64(h.Nanoseconds())/1e3)
	s.loopbackUs = append(s.loopbackUs, float64((e2e-h).Nanoseconds())/1e3)
	if o.tbrs {
		var ok bool
		var raw []byte
		ld := t.timed(i, root, "store.load", func() {
			raw, s.vals, ok = s.d.st.LoadAddrBuf(s.resp[o.g].Points[o.pt].Key, s.buf, s.vals)
		})
		if !ok {
			return fmt.Errorf("store has no entry for grid %d point %d", o.g, o.pt)
		}
		s.buf = raw
		s.loadUs = append(s.loadUs, float64(ld.Nanoseconds())/1e3)
	}
	return nil
}

func (s *serveWarm) layers(*tracer) map[string]float64 {
	l := map[string]float64{
		"service.handler_us": median(s.handlerUs),
		"http.loopback_us":   median(s.loopbackUs),
		"store.load_us":      median(s.loadUs),
	}
	m, err := s.d.counters("response_bytes_cache_hits_total", "response_bytes_cache_misses_total")
	if err == nil {
		hits := m["response_bytes_cache_hits_total"] - s.hits0
		miss := m["response_bytes_cache_misses_total"] - s.miss0
		if hits+miss > 0 {
			l["service.bytecache_hit_ratio"] = hits / (hits + miss)
		}
	}
	return l
}
