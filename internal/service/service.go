// Package service is the HTTP face of the scenario engine: a
// topology-evaluation daemon (`topobench serve`) answering declarative
// grid requests from the tiered solve cache, solving only what no process
// has solved before.
//
// API (JSON unless noted):
//
//	POST /v1/eval          {"grid": "topo=... traffic=... eval=... sweep=..."}
//	                       → EvalResponse: per-point coords, content
//	                       address, summary stats, and raw run values.
//	POST /v1/jobs          same body → 202 {"job": id, "poll": path}: the
//	                       grid evaluates asynchronously; the job record
//	                       is persisted in the result store and survives
//	                       restart (see handleSubmitJob in jobs.go).
//	GET  /v1/jobs/<id>     job status: state, progress (done/total
//	                       points), result path once terminal.
//	GET  /v1/jobs/<id>/result
//	                       the finished job's canonical EvalResponse
//	                       bytes, kept in its record (202 + status while
//	                       still running).
//	DELETE /v1/jobs/<id>   cancel a running job (202) or discard a
//	                       terminal one (204).
//	GET  /v1/result/<key>  one stored result by content address (hex
//	                       SHA-256 of the point key) → 404 if absent.
//	                       Carries a strong, representation-versioned
//	                       ETag; If-None-Match revalidation answers 304
//	                       without touching the store (content addresses
//	                       are immutable).
//	GET  /v1/scenarios     the three registries (topologies, traffics,
//	                       evaluators).
//	GET  /healthz          liveness probe ("ok").
//	GET  /metrics          Prometheus text: cache/store hit/miss/bytes,
//	                       request/rejection/dedup counters, response-
//	                       byte-cache counters, and a request-latency
//	                       histogram (topobench_request_seconds, split
//	                       by route class: eval, result, jobs, other).
//	                       Each wired component declares its families
//	                       in a Metrics method on its stats snapshot.
//	GET  /debug/traces     recently completed traces from the tracer's
//	                       ring, newest first (?min=250ms filters by
//	                       duration). 404 when serving without a Tracer.
//
// # Observability
//
// With Config.Tracer set, requests are traced end to end (internal/
// trace): a request is sampled by the tracer's 1-in-N counter gate, or
// unconditionally when it carries a sampled W3C `traceparent` header —
// which is how a peer replica's result fetch joins the originating
// request's trace across processes. A sampled request gets a root span
// named after its method and path, its trace id echoed in the
// `X-Trace-Id` response header, and child spans for flight
// attach/lead, solve-cache tiers (memory/disk/peer), claim-lease
// waits, warm-start preparation/certification, and per-solve phase
// breakdowns (mcf.solve). Completed traces land in the tracer's
// fixed-size ring, served by GET /debug/traces.
//
// Sampling is decided once, at the root: an unsampled request runs the
// exact same instrumented code with inert zero spans and allocates
// nothing extra, so the warm dataplane's alloc budget holds at any
// sampling rate (TestWarmEvalAllocsTraced pins this). Requests at or
// over the tracer's slow threshold are always captured — post hoc,
// with a freshly minted trace id, when head sampling skipped them —
// and logged through Config.Logger with their route, grid, duration,
// response source, and trace id.
//
// Identical grids requested concurrently are deduplicated in flight
// (singleflight): one evaluation runs, every waiter gets its bytes.
// Warm grids are answered from a content-addressed response-byte cache
// (bytecache.go) — canonical bytes, no re-marshal, zero-alloc request
// loop — sized by Config.RespCacheMaxBytes.
// Admission is a bounded job queue — when MaxJobs evaluations are already
// in flight, new distinct grids are rejected with 429 Too Many Requests
// and a Retry-After hint, so overload degrades by backpressure instead of
// queue collapse. Responses are canonically marshaled, so a warm replay
// of a grid is byte-identical to the cold response (`topobench -scenario
// -json` emits the same encoding for offline comparison).
//
// The service is hardened to be a safe fleet peer (see the repo's "Fault
// tolerance" doc section): every handler runs under panic-recovery
// middleware (a bug answers 500, the daemon survives); each evaluation
// runs under its request's context — plus an optional RequestTimeout —
// so a disconnected client aborts its solve at the next phase boundary
// instead of burning a queue slot (a singleflighted evaluation aborts
// only once EVERY attached request is gone); GET /v1/result/<key> serves
// raw TBRS codec bytes to peers that ask (Accept: application/x-tbrs) and
// PUT /v1/result/<key> accepts them, CRC-verified before anything touches
// the store; /healthz reports degraded state (remote-tier errors, open
// circuit breaker) and 503 only when the job queue is wedged; and
// /metrics exposes the breaker/retry/claim counters alongside the cache
// and store ones.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/remotestore"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/trace"
)

// Config wires a Server. Engine and Cache normally share the same cache;
// Store is the disk store holding that cache's results, directly or
// behind a Tiered backend (nil for memory-only serving).
type Config struct {
	Engine *scenario.Engine
	Cache  *scenario.Cache
	Store  *store.Store
	// MaxJobs bounds eval requests in flight (executing, not waiting on an
	// identical flight); further distinct grids get 429. <= 0 means
	// 2·GOMAXPROCS.
	MaxJobs int
	// StoreMaxBytes, when > 0, prunes the store to this LRU byte budget
	// after each evaluation.
	StoreMaxBytes int64
	// Remote, when the cache has a remote tier, surfaces its breaker and
	// retry counters on /metrics and drives the degraded /healthz state.
	Remote *remotestore.Client
	// Tiered, when the store is fronted by store.Tiered, surfaces its
	// hit/promotion/claim counters on /metrics.
	Tiered *store.Tiered
	// RequestTimeout bounds each evaluation's wall clock (0 = unbounded);
	// expiry aborts the solve at its next phase boundary and answers 504.
	RequestTimeout time.Duration
	// WedgeAfter is how long the job queue may sit full with no slot
	// acquired or released before /healthz reports wedged (503).
	// 0 means 5 minutes.
	WedgeAfter time.Duration
	// JobTimeout bounds one async job's evaluation wall clock (0 =
	// unbounded). Async jobs deliberately do NOT inherit RequestTimeout:
	// outliving a connection-scale deadline is their reason to exist.
	JobTimeout time.Duration
	// JobRetain is how long a terminal job's record is kept after its last
	// update; expired records are discarded at startup and before each
	// job submission. 0 means 24 hours.
	JobRetain time.Duration
	// MaxQueuedJobs bounds async jobs resident at once (queued + running +
	// finished-but-retained); submissions beyond it get 429. <= 0 means
	// 16·MaxJobs.
	MaxQueuedJobs int
	// RespCacheMaxBytes bounds the response-byte cache (bytecache.go): the
	// canonical response bytes of previously-answered grids, served with
	// zero re-marshal on hit and evicted LRU beyond the budget. 0 means
	// 64 MiB; negative disables the cache.
	RespCacheMaxBytes int64
	// Tracer, when non-nil, enables request tracing (see the package
	// Observability section). nil keeps every trace entry point inert, so
	// the dataplane is untouched.
	Tracer *trace.Tracer
	// Logger receives the service's structured log lines (currently the
	// slow-request line). nil discards.
	Logger *slog.Logger
}

// Server handles the evaluation API. Create with New.
type Server struct {
	cfg  Config
	jobs chan struct{}
	// resp caches canonical response bytes by versioned content address —
	// the warm dataplane (see bytecache.go).
	resp *respCache
	// hists are the per-route-class request-latency histograms behind
	// topobench_request_seconds on /metrics, indexed by route class.
	hists [numRoutes]reqHist
	// log is cfg.Logger, resolved to a discard logger when nil so call
	// sites never branch.
	log *slog.Logger

	mu      sync.Mutex
	flights map[string]*flight

	// jobsMu guards jobTab, the in-memory registry of async jobs (the
	// durable truth lives in the store's job records; jobTab adds the live
	// cancel funcs).
	jobsMu sync.Mutex
	jobTab map[string]*job

	jobsSubmitted atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCanceled  atomic.Int64
	jobsRejected  atomic.Int64
	jobsRecovered atomic.Int64
	jobsUnknown   atomic.Int64

	requests atomic.Int64
	rejected atomic.Int64
	shared   atomic.Int64
	panics   atomic.Int64
	timeouts atomic.Int64
	canceled atomic.Int64
	puts     atomic.Int64
	putBad   atomic.Int64
	sampled  atomic.Int64
	slowReqs atomic.Int64
	// lastSlot is the unix-nano time a job slot last changed hands — the
	// liveness signal behind /healthz wedge detection.
	lastSlot atomic.Int64
}

// flight is one in-progress evaluation; waiters replay its bytes. The
// evaluation runs under the flight's context, which is canceled only when
// every attached request has gone away (or RequestTimeout expires), so one
// impatient client never aborts a solve other waiters still want.
type flight struct {
	done    chan struct{}
	status  int
	body    []byte
	ctx     context.Context
	cancel  context.CancelFunc
	waiters atomic.Int64
}

func newFlight(timeout time.Duration) *flight {
	f := &flight{done: make(chan struct{})}
	if timeout > 0 {
		f.ctx, f.cancel = context.WithTimeout(context.Background(), timeout)
	} else {
		f.ctx, f.cancel = context.WithCancel(context.Background())
	}
	return f
}

// attach ties one request's lifetime to the flight: the flight's context
// is canceled only once EVERY attached request is gone and the evaluation
// has not already completed.
func (f *flight) attach(rctx context.Context) {
	f.waiters.Add(1)
	go func() {
		select {
		case <-rctx.Done():
		case <-f.done:
		}
		if f.waiters.Add(-1) == 0 {
			select {
			case <-f.done: // completed: nothing left to cancel
			default:
				f.cancel()
			}
		}
	}()
}

// New returns a Server ready to serve.
func New(cfg Config) *Server {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.WedgeAfter <= 0 {
		cfg.WedgeAfter = 5 * time.Minute
	}
	if cfg.JobRetain <= 0 {
		cfg.JobRetain = 24 * time.Hour
	}
	if cfg.MaxQueuedJobs <= 0 {
		cfg.MaxQueuedJobs = 16 * cfg.MaxJobs
	}
	if cfg.RespCacheMaxBytes == 0 {
		cfg.RespCacheMaxBytes = 64 << 20
	}
	s := &Server{
		cfg:     cfg,
		resp:    newRespCache(cfg.RespCacheMaxBytes),
		jobs:    make(chan struct{}, cfg.MaxJobs),
		flights: map[string]*flight{},
		jobTab:  map[string]*job{},
		log:     cfg.Logger,
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.lastSlot.Store(time.Now().UnixNano())
	return s
}

// Handler returns the service's routes wrapped in panic-recovery
// middleware: a handler bug answers 500 (when nothing was written yet) and
// increments topobench_eval_panics_total; the daemon survives.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/eval", s.handleEval)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/result/{key}", s.handleResult)
	mux.HandleFunc("PUT /v1/result/{key}", s.handlePutResult)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	return s.timing(s.recoverer(mux))
}

// timing is the outermost middleware: it classifies the request's route,
// feeds its wall clock into that route's latency histogram, and owns the
// trace lifecycle — deciding sampling once at the root (the counter gate,
// or unconditionally on an incoming sampled traceparent so a peer's
// request joins its caller's trace), echoing X-Trace-Id, committing the
// finished trace to the ring, and capturing slow-but-unsampled requests
// post hoc so the always-sample-slow rule holds either way. It wraps the
// recoverer, so panicking (recovered) requests are observed too.
//
// The unsampled path costs one atomic counter increment and allocates
// nothing, preserving the warm dataplane's alloc budget at any sampling
// rate.
func (s *Server) timing(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := routeClass(r.URL.Path)
		t := s.cfg.Tracer
		var parent trace.TraceID
		var remote trace.SpanID
		sampled := false
		if t != nil {
			if h := r.Header.Get("traceparent"); h != "" {
				if tid, sid, flag, ok := trace.ParseTraceparent(h); ok {
					parent, remote = tid, sid
					sampled = flag
				}
			}
			sampled = sampled || t.SampleNext()
		}
		if !sampled {
			start := time.Now()
			next.ServeHTTP(w, r)
			dur := time.Since(start)
			s.hists[rt].observe(dur)
			if slow := t.Slow(); slow > 0 && dur >= slow {
				s.slowReqs.Add(1)
				// A handler that already captured its own slow trace (the
				// eval path, which knows the grid) set X-Trace-Id; don't
				// mint a second trace for the same request.
				if _, done := w.Header()["X-Trace-Id"]; !done {
					id := t.Capture(r.Method+" "+r.URL.Path, start, dur)
					s.log.Warn("slow request",
						"route", routeNames[rt], "method", r.Method, "path", r.URL.Path,
						"duration", dur, "trace", id.String())
				}
			}
			return
		}
		s.sampled.Add(1)
		tr := t.Start(parent, remote)
		w.Header()["X-Trace-Id"] = []string{tr.ID().String()}
		root := tr.Root(r.Method + " " + r.URL.Path)
		r = r.WithContext(trace.ContextWithSpan(r.Context(), root))
		start := time.Now()
		next.ServeHTTP(w, r)
		dur := time.Since(start)
		root.End()
		slow := t.Slow() > 0 && dur >= t.Slow()
		t.Finish(tr, dur, slow)
		s.hists[rt].observe(dur)
		if slow {
			s.slowReqs.Add(1)
			// Eval requests log their own richer line (grid, source) from
			// handleEval; everything else is logged here.
			if rt != routeEval {
				s.log.Warn("slow request",
					"route", routeNames[rt], "method", r.Method, "path", r.URL.Path,
					"duration", dur, "trace", tr.ID().String())
			}
		}
	})
}

func (s *Server) recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.panics.Add(1)
				// Best effort: if the handler already wrote headers this is
				// a no-op on them, but the connection still closes cleanly.
				writeError(w, http.StatusInternalServerError,
					fmt.Errorf("internal panic: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// EvalRequest is the POST /v1/eval body.
type EvalRequest struct {
	// Grid is a scenario grid line, the same grammar as `topobench
	// -scenario` (see scenario.ParseGrid).
	Grid string `json:"grid"`
}

// PointResult is one grid point of an EvalResponse.
type PointResult struct {
	// Coords are the point's sweep-axis values, in axis order.
	Coords []string `json:"coords,omitempty"`
	// Key is the point's content address — the hex SHA-256 of its cache
	// key, usable with GET /v1/result/<key>.
	Key string `json:"key"`
	// OK is false when the point was infeasible and skipped.
	OK   bool    `json:"ok"`
	Runs int     `json:"runs"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	// Values are the raw per-run values, in run order.
	Values []float64 `json:"values,omitempty"`
}

// EvalResponse is the POST /v1/eval result.
type EvalResponse struct {
	Grid   string        `json:"grid"`
	Points []PointResult `json:"points"`
}

// Defaults fill run controls a grid line leaves unset, mirroring the
// topobench flag semantics (values inside the line always win). A zero
// Seed defaults to 1 either way, so a line and its explicit-seed twin
// address the same cache entries.
type Defaults struct {
	Runs    int
	Seed    int64
	Epsilon float64
}

// Apply fills the run controls g leaves unset. EvalGrid and the TSV path
// of `topobench -scenario` both call it, so the two address the same
// cache entries and draw the same streams.
func (d Defaults) Apply(g *scenario.Grid) {
	if g.Runs == 0 {
		g.Runs = d.Runs
	}
	if g.Seed == 0 {
		g.Seed = d.Seed
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.Epsilon == 0 {
		g.Epsilon = d.Epsilon
	}
}

// ErrBadRequest marks EvalGrid errors caused by the request (grammar,
// unknown kinds) rather than by evaluation itself.
var ErrBadRequest = errors.New("bad eval request")

// EvalGrid parses and evaluates one grid line on the engine and builds
// the canonical response. It is the single evaluation path shared by the
// HTTP handler, async jobs and `topobench -scenario -json`, so their
// bytes agree.
//
// Cancelling ctx stops the grid at the next point/run boundary (and
// in-flight MCF solves at their next phase boundary) and returns the
// context's error. A canceled evaluation stores nothing, so re-requesting
// the grid re-solves cleanly. A non-nil progress is called per point (see
// scenario.MeasureRunsProgress) — the async job API's hook for persisting
// job progress as the grid advances.
func EvalGrid(ctx context.Context, eng *scenario.Engine, line string, def Defaults, progress scenario.ProgressFunc) (*EvalResponse, error) {
	line = strings.Join(strings.Fields(line), " ")
	grid, err := scenario.ParseGrid(line)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	def.Apply(&grid)
	gps, err := grid.Points()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	pts := make([]scenario.Point, len(gps))
	for i, gp := range gps {
		pts[i] = gp.Point
	}
	vals, err := eng.MeasureRunsProgress(ctx, pts, progress)
	if err != nil {
		return nil, err
	}
	resp := &EvalResponse{Grid: line, Points: make([]PointResult, len(gps))}
	for i, gp := range gps {
		st := scenario.Summarize(vals[i])
		resp.Points[i] = PointResult{
			Coords: gp.Coords,
			Key:    store.Addr(gp.Key()),
			OK:     st.OK,
			Runs:   st.Runs,
			Mean:   st.Mean, Std: st.Std, Min: st.Min, Max: st.Max,
			Values: vals[i],
		}
	}
	return resp, nil
}

// MarshalCanonical renders the response in its one true byte form —
// indented JSON plus trailing newline — so equal results are equal bytes
// across processes, machines, and transports.
func (r *EvalResponse) MarshalCanonical() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// errQueueFull is evalShared's non-blocking admission refusal; handleEval
// maps it to 429.
var errQueueFull = errors.New("evaluation queue full")

// evalScratch is the pooled per-request parse scratch: the request-body
// read buffer and the key-preimage buffer live across requests instead of
// being reallocated per request, so the warm dataplane's only remaining
// parse allocations are encoding/json's own small decode state.
type evalScratch struct {
	body []byte
	key  []byte
}

var evalScratchPool = sync.Pool{New: func() any { return &evalScratch{} }}

// maxEvalBody bounds a request body read — a grid line is at most a few
// hundred bytes; anything beyond this is not a grid request.
const maxEvalBody = 1 << 20

// readGrid reads and parses an eval or job request body into sc,
// returning the whitespace-normalized grid line. The body must be exactly
// one JSON object of at most maxEvalBody bytes.
func readGrid(r *http.Request, sc *evalScratch) (string, error) {
	buf := sc.body[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		// Before the EOF break: the last bytes may arrive with io.EOF.
		if len(buf) > maxEvalBody {
			sc.body = buf
			return "", errors.New("request body too large")
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			sc.body = buf
			return "", fmt.Errorf("reading request: %w", err)
		}
	}
	sc.body = buf
	var req EvalRequest
	if err := json.Unmarshal(buf, &req); err != nil {
		return "", fmt.Errorf("decoding request: %w", err)
	}
	if strings.TrimSpace(req.Grid) == "" {
		return "", errors.New("request needs a grid line")
	}
	return normalizeLine(req.Grid), nil
}

// normalizeLine is strings.Join(strings.Fields(s), " ") with an
// allocation-free fast path for lines that are already in canonical form
// (single interior spaces, no leading/trailing whitespace) — which is
// every line a well-behaved client or the loadgen harness sends.
func normalizeLine(s string) string {
	if s == "" {
		return s
	}
	clean := s[0] != ' ' && s[len(s)-1] != ' '
	for i := 0; clean && i < len(s); i++ {
		switch s[i] {
		case '\t', '\n', '\v', '\f', '\r':
			clean = false
		case ' ':
			if i+1 < len(s) && s[i+1] == ' ' {
				clean = false
			}
		}
	}
	if clean {
		return s
	}
	return strings.Join(strings.Fields(s), " ")
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	slowAt := s.cfg.Tracer.Slow()
	var start time.Time
	if slowAt > 0 {
		start = time.Now()
	}
	sc := evalScratchPool.Get().(*evalScratch)
	defer evalScratchPool.Put(sc)
	key, err := readGrid(r, sc)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status, body, src, err := s.evalShared(r.Context(), key, false, s.cfg.RequestTimeout, nil, sc)
	if err != nil {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("evaluation queue full (%d jobs in flight)", cap(s.jobs)))
		return
	}
	if slowAt > 0 {
		if dur := time.Since(start); dur >= slowAt {
			// The slow-eval line carries what the generic middleware line
			// cannot: the grid and how the bytes were produced. When head
			// sampling skipped the request, mint its trace post hoc and echo
			// the id — setting X-Trace-Id also tells the middleware this
			// request's slow capture is handled.
			id := trace.SpanFromContext(r.Context()).TraceID()
			if id.IsZero() {
				id = s.cfg.Tracer.Capture(r.Method+" "+r.URL.Path, start, dur,
					trace.Attr{Key: "grid", Str: key},
					trace.Attr{Key: "source", Str: src})
				w.Header()["X-Trace-Id"] = []string{id.String()}
			}
			s.log.Warn("slow request",
				"route", "eval", "grid", key, "source", src, "status", status,
				"duration", dur, "trace", id.String())
		}
	}
	writeBytes(w, status, body)
}

// evalShared runs one deduplicated grid evaluation on behalf of a caller
// — a synchronous /v1/eval request or an async job — and returns its
// status and canonical bytes. Identical keys share one flight; ctx is the
// caller's lifetime (detaching the last caller cancels the solve).
//
// block selects the admission policy when every job slot is taken:
// synchronous requests refuse immediately (errQueueFull → 429), jobs wait
// for a slot (they already answered 202; holding a goroutine is cheap,
// holding a connection was the problem). The only other error is the
// caller's own ctx expiring while waiting.
//
// Two flight-lifecycle rules live here rather than in the handler:
//
//   - Never attach to a canceled flight. A flight whose waiters all
//     disconnected cancels its context but stays in the map until its
//     leader's cleanup runs; attaching in that window would replay the
//     cached 499 "all clients disconnected" body to a live client. Such a
//     flight is treated as absent — the newcomer leads a fresh one (the
//     map slot is overwritten; the old leader's cleanup only deletes its
//     own flight).
//   - Re-dispatch after losing this race anyway. An attacher that was
//     tied to a flight before its cancellation still wakes to a 499; if
//     its own ctx is live, it loops and re-dispatches instead of
//     forwarding a disconnect it did not suffer.
//
// sc is the caller's pooled parse scratch (its key-preimage buffer is
// reused here). The response-byte cache fronts everything: a warm grid
// returns its canonical bytes here — no flight, no job slot, no engine
// walk, no marshal — and a cold evaluation's 200 bytes populate the cache
// on the way out (one put per flight: population is singleflighted by
// construction).
//
// The src return names how the bytes were produced — "bytecache" (warm
// hit), "shared" (attached to an identical in-flight evaluation), or
// "lead" (this call ran the solve) — for the slow-request log line.
func (s *Server) evalShared(ctx context.Context, key string, block bool, timeout time.Duration, progress scenario.ProgressFunc, sc *evalScratch) (int, []byte, string, error) {
	var rk respKey
	rk, sc.key = respKeyFor(sc.key, respKeyPrefix, key)
	if body := s.resp.get(rk); body != nil {
		if sp := trace.StartSpan(ctx, "resp.cache"); sp.OK() {
			sp.Attr("outcome", "hit")
			sp.End()
		}
		return http.StatusOK, body, "bytecache", nil
	}
	for {
		s.mu.Lock()
		if f, ok := s.flights[key]; ok && f.ctx.Err() == nil {
			// An identical grid is already evaluating: wait for its bytes
			// instead of competing for a job slot. Attaching keeps the solve
			// alive even if its originating client hangs up first.
			f.attach(ctx)
			s.mu.Unlock()
			s.shared.Add(1)
			asp := trace.StartSpan(ctx, "flight.attach")
			<-f.done
			asp.AttrInt("status", int64(f.status))
			asp.End()
			if f.status == 499 && ctx.Err() == nil {
				continue
			}
			return f.status, f.body, "shared", nil
		}
		select {
		case s.jobs <- struct{}{}:
			s.lastSlot.Store(time.Now().UnixNano())
		default:
			s.mu.Unlock()
			if !block {
				return 0, nil, "", errQueueFull
			}
			// Blocking acquisition happens outside the lock (a full queue
			// must not wedge every handler). The slot is released right away
			// and the loop re-checks the flight table: a flight for this key
			// may have appeared while waiting, and attaching to it beats
			// leading a duplicate.
			select {
			case s.jobs <- struct{}{}:
				s.lastSlot.Store(time.Now().UnixNano())
				<-s.jobs
				s.lastSlot.Store(time.Now().UnixNano())
				continue
			case <-ctx.Done():
				return 0, nil, "", ctx.Err()
			}
		}
		f := newFlight(timeout)
		// The flight leader's span travels in f.ctx, so the whole solve —
		// engine walk, cache tiers, claim waits, mcf phases — nests under
		// this request's trace. Attached waiters see only their own
		// flight.attach span; the solve detail lives on the leader's trace.
		lsp := trace.StartSpan(ctx, "flight.lead")
		f.ctx = trace.ContextWithSpan(f.ctx, lsp)
		f.attach(ctx)
		s.flights[key] = f
		s.mu.Unlock()

		// Cleanup must survive a panicking evaluation: an undeleted flight
		// would wedge every future request for this grid on <-f.done, and an
		// unreleased job slot would shrink the queue permanently. The delete
		// compares first — a canceled flight may already have been replaced
		// by a successor's, which must not be torn down with it.
		func() {
			defer func() {
				s.mu.Lock()
				if s.flights[key] == f {
					delete(s.flights, key)
				}
				s.mu.Unlock()
				close(f.done)
				f.cancel()
				<-s.jobs
				s.lastSlot.Store(time.Now().UnixNano())
			}()
			f.status, f.body = s.evaluate(f.ctx, key, progress)
			lsp.AttrInt("status", int64(f.status))
			lsp.End()
			if f.status == http.StatusOK {
				s.resp.put(rk, f.body)
			}
		}()
		return f.status, f.body, "lead", nil
	}
}

// evaluate runs one deduplicated grid evaluation and renders its bytes.
// A panicking evaluator is reported as a 500, not a dropped connection,
// and logged with the panicking task's stack, whichever goroutine it ran
// on (runner.Map re-raises a helper's panic here); cancellation and
// deadline expiry get their own statuses so callers can tell an aborted
// solve from a broken one.
func (s *Server) evaluate(ctx context.Context, line string, progress scenario.ProgressFunc) (status int, body []byte) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			val, stack := r, debug.Stack()
			if p, ok := r.(*runner.Panic); ok {
				val, stack = p.Value, p.Stack
			}
			s.log.Error("evaluation panicked", "grid", line, "panic", fmt.Sprint(val), "stack", string(stack))
			status = http.StatusInternalServerError
			body = errorBody(fmt.Errorf("evaluation panicked: %v", val))
		}
	}()
	resp, err := EvalGrid(ctx, s.cfg.Engine, line, Defaults{}, progress)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.timeouts.Add(1)
			status = http.StatusGatewayTimeout
			err = fmt.Errorf("evaluation exceeded the request timeout (%s)", s.cfg.RequestTimeout)
		case errors.Is(err, context.Canceled):
			// 499: nginx's "client closed request" — every attached client
			// went away, so nobody reads this, but the flight records it.
			s.canceled.Add(1)
			status = 499
			err = errors.New("evaluation canceled: all requesting clients disconnected")
		case errors.Is(err, ErrBadRequest):
			status = http.StatusBadRequest
		}
		return status, errorBody(err)
	}
	if s.cfg.Store != nil && s.cfg.StoreMaxBytes > 0 {
		s.cfg.Store.Prune(s.cfg.StoreMaxBytes)
	}
	body, err = resp.MarshalCanonical()
	if err != nil {
		return http.StatusInternalServerError, errorBody(err)
	}
	return http.StatusOK, body
}

// Result representations carry strong ETags: a content address fully
// determines its bytes (the byte-identity invariant), so the ETag is the
// address itself plus a representation-and-version suffix — `.j<n>` for
// the JSON view (n = respSchemaVersion) and `.t<n>` for the raw TBRS view
// (n = store.CodecVersion). Bumping either version changes every ETag, so
// clients can never revalidate bytes produced under an older encoding.
var (
	etagJSONSuffix = fmt.Sprintf(".j%d\"", respSchemaVersion)
	etagTBRSSuffix = fmt.Sprintf(".t%d\"", store.CodecVersion)

	jsonCTVal    = []string{"application/json; charset=utf-8"}
	tbrsCTVal    = []string{remotestore.ContentType}
	metricsCTVal = []string{"text/plain; version=0.0.4; charset=utf-8"}
	varyAccept   = []string{"Accept"}
)

// etagMatch reports whether an If-None-Match header matches etag, per RFC
// 7232 weak comparison: `*` matches anything, a W/ prefix on a candidate
// is ignored, and the list form is scanned tag by tag.
func etagMatch(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for {
		header = strings.TrimLeft(header, " \t,")
		if header == "" {
			return false
		}
		t := header
		if strings.HasPrefix(t, "W/") {
			t = t[2:]
		}
		if len(t) < 2 || t[0] != '"' {
			return false // malformed header: treat as no match
		}
		end := strings.IndexByte(t[1:], '"')
		if end < 0 {
			return false
		}
		if t[:end+2] == etag {
			return true
		}
		header = t[end+2:]
	}
}

// resultScratch pools the GET /v1/result read scratch: entry bytes and
// decoded values are reused across requests, so the peer-facing TBRS hot
// path reads the store without per-request buffer allocations.
type resultScratch struct {
	buf  []byte
	vals []float64
}

var resultScratchPool = sync.Pool{New: func() any { return &resultScratch{} }}

// handleResult serves one stored result by content address. Conditional
// requests short-circuit BEFORE the store is touched: content addressing
// makes every representation immutable (an address can only ever map to
// one byte sequence, across processes and restarts), so a client
// presenting a matching ETag holds the current bytes by construction and
// a 304 — carrying no body — needs no store read at all, not even an
// existence check.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, errors.New("no result store attached (serve with -cache-dir)"))
		return
	}
	key := r.PathValue("key")
	if !validAddr(key) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no result under %s", key))
		return
	}
	tbrs := r.Header.Get("Accept") == remotestore.ContentType
	suffix := etagJSONSuffix
	if tbrs {
		suffix = etagTBRSSuffix
	}
	etag := `"` + key + suffix
	h := w.Header()
	h["Vary"] = varyAccept
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		h["Etag"] = []string{etag}
		w.WriteHeader(http.StatusNotModified)
		return
	}
	sc := resultScratchPool.Get().(*resultScratch)
	defer resultScratchPool.Put(sc)
	raw, vals, ok := s.cfg.Store.LoadAddrBuf(key, sc.buf, sc.vals)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no result under %s", key))
		return
	}
	sc.buf, sc.vals = raw, vals
	h["Etag"] = []string{etag}
	if tbrs {
		// Peer replicas (internal/remotestore) ask for the raw TBRS codec
		// bytes. raw is the verified on-disk entry exactly as a Save wrote
		// it — its decode already re-checked magic, version, and CRC — so
		// it is forwarded without re-encoding and a peer still never
		// receives disk corruption.
		h["Content-Type"] = tbrsCTVal
		h["Content-Length"] = []string{strconv.Itoa(len(raw))}
		w.WriteHeader(http.StatusOK)
		w.Write(raw)
		return
	}
	// The JSON view also surfaces the entry's parent link (the content
	// address of the result whose witness warm-started this solve), when
	// the codec recorded one.
	_, parent, _ := store.DecodeEntry(raw)
	body, err := json.MarshalIndent(struct {
		Key    string    `json:"key"`
		Values []float64 `json:"values"`
		Parent string    `json:"parent,omitempty"`
	}{key, vals, parent}, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBytes(w, http.StatusOK, append(body, '\n'))
}

// maxPutBytes bounds a PUT /v1/result body — matches the remotestore
// client's own entry cap (a run-values entry is a few KB in practice).
const maxPutBytes = 4 << 20

// handlePutResult accepts one TBRS entry from a peer replica. The body is
// decoded — CRC re-verified — before anything touches the store, so a
// corrupt or truncated upload is rejected with 400 and can never poison
// the cache (the codec-boundary corruption rule, applied to the network).
func (s *Server) handlePutResult(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotImplemented, errors.New("no result store attached (serve with -cache-dir)"))
		return
	}
	key := r.PathValue("key")
	if !validAddr(key) {
		s.putBad.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed content address %q", key))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPutBytes+1))
	if err != nil {
		s.putBad.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading entry: %w", err))
		return
	}
	if len(body) > maxPutBytes {
		s.putBad.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("entry exceeds %d bytes", maxPutBytes))
		return
	}
	vals, parent, ok := store.DecodeEntry(body)
	if !ok {
		s.putBad.Add(1)
		writeError(w, http.StatusBadRequest, errors.New("entry failed codec/CRC verification"))
		return
	}
	if err := s.cfg.Store.SaveAddrLinked(key, vals, parent); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.puts.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func validAddr(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleHealthz reports liveness in three grades: "ok"; "degraded" (still
// 200 — the replica serves, but its remote tier saw errors in the last 30s
// or the breaker is open, so it may be solving cold); and "wedged" (503 —
// every job slot has been occupied with no slot turnover for WedgeAfter,
// so new work cannot make progress and the replica should be restarted or
// drained).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type report struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons,omitempty"`
	}
	render := func(status int, rep report) {
		body, _ := json.Marshal(rep)
		writeBytes(w, status, append(body, '\n'))
	}
	if len(s.jobs) == cap(s.jobs) {
		idle := time.Since(time.Unix(0, s.lastSlot.Load()))
		if idle > s.cfg.WedgeAfter {
			render(http.StatusServiceUnavailable, report{
				Status: "wedged",
				Reasons: []string{fmt.Sprintf(
					"all %d job slots occupied with no turnover for %s", cap(s.jobs), idle.Round(time.Second))},
			})
			return
		}
	}
	var reasons []string
	if c := s.cfg.Remote; c != nil {
		if state := c.State(); state != remotestore.Closed {
			reasons = append(reasons, "remote store circuit breaker "+state.String())
		}
		if n := c.RecentErrors(30 * time.Second); n > 0 {
			reasons = append(reasons, fmt.Sprintf("%d remote store errors in the last 30s", n))
		}
	}
	if len(reasons) > 0 {
		render(http.StatusOK, report{Status: "degraded", Reasons: reasons})
		return
	}
	render(http.StatusOK, report{Status: "ok"})
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	body, err := json.MarshalIndent(struct {
		Topologies []string `json:"topologies"`
		Traffics   []string `json:"traffics"`
		Evaluators []string `json:"evaluators"`
	}{scenario.TopologyKinds(), scenario.TrafficKinds(), scenario.EvaluatorKinds()}, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBytes(w, http.StatusOK, append(body, '\n'))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The exposition is rendered into a buffer first so the response can
	// carry Content-Length like every other endpoint. Every family goes
	// out with its HELP/TYPE pair (emitMetric), so the scrape is
	// well-formed Prometheus text, not just name/value lines.
	var buf bytes.Buffer
	emit := func(name, help string, v int64) {
		emitMetric(&buf, name, help, v)
	}
	if c := s.cfg.Cache; c != nil {
		c.Stats().Metrics(emit)
	}
	if st := s.cfg.Store; st != nil {
		st.Stats().Metrics(emit)
	}
	if e := s.cfg.Engine; e != nil {
		e.WarmStats().Metrics(emit)
	}
	if t := s.cfg.Tiered; t != nil {
		t.Stats().Metrics(emit)
	}
	if c := s.cfg.Remote; c != nil {
		c.Stats().Metrics(emit)
	}
	s.metrics(emit)
	renderRouteHists(&buf, &s.hists)
	h := w.Header()
	h["Content-Type"] = metricsCTVal
	h["Content-Length"] = []string{strconv.Itoa(buf.Len())}
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// metrics emits the server's own /metrics families in scrape order, each
// with its help text: job, eval and result-put counters, the
// response-byte cache, and the trace counters when tracing is on.
func (s *Server) metrics(emit func(name, help string, v int64)) {
	emit("jobs_submitted_total", "Async jobs accepted (202).", s.jobsSubmitted.Load())
	emit("jobs_done_total", "Async jobs that finished with a result.", s.jobsDone.Load())
	emit("jobs_failed_total", "Async jobs that finished with an error.", s.jobsFailed.Load())
	emit("jobs_canceled_total", "Async jobs canceled before finishing.", s.jobsCanceled.Load())
	emit("jobs_rejected_total", "Async job submissions refused by the resident-job bound.", s.jobsRejected.Load())
	emit("jobs_recovered_total", "Job records re-adopted from the store after a restart.", s.jobsRecovered.Load())
	emit("jobs_unknown_total", "Polls for unknown (lost or expired) job ids.", s.jobsUnknown.Load())
	emit("jobs_resident", "Async jobs resident (queued, running, or retained).", int64(s.jobCount()))
	emit("eval_requests_total", "Evaluation requests received (/v1/eval and /v1/jobs).", s.requests.Load())
	emit("eval_rejected_total", "Synchronous evaluations refused with 429 (queue full).", s.rejected.Load())
	emit("eval_shared_total", "Requests answered by attaching to an identical in-flight evaluation.", s.shared.Load())
	emit("eval_panics_total", "Panics recovered in handlers or evaluations.", s.panics.Load())
	emit("eval_timeouts_total", "Evaluations aborted by the request timeout (504).", s.timeouts.Load())
	emit("eval_canceled_total", "Evaluations aborted because every client disconnected (499).", s.canceled.Load())
	emit("result_puts_total", "Peer result uploads accepted.", s.puts.Load())
	emit("result_puts_rejected_total", "Peer result uploads rejected before touching the store.", s.putBad.Load())
	emit("eval_inflight", "Job slots currently occupied.", int64(len(s.jobs)))
	s.resp.stats().Metrics(emit)
	if s.cfg.Tracer != nil {
		emit("traces_sampled_total", "Requests head-sampled (or joined from a traceparent) into the trace ring.", s.sampled.Load())
		emit("traces_slow_total", "Requests at or over the slow threshold (sampled or captured post hoc).", s.slowReqs.Load())
	}
}

// handleTraces serves the tracer's ring of completed traces, newest
// first, as JSON. ?min=<duration> keeps only traces at least that slow —
// the operator's "show me what hurt" filter. 404 without a Tracer, so a
// tracing-disabled replica looks exactly like an older one.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	t := s.cfg.Tracer
	if t == nil {
		writeError(w, http.StatusNotFound, errors.New("tracing disabled (serve with -trace-sample)"))
		return
	}
	var min time.Duration
	if q := r.URL.Query().Get("min"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad min duration %q: %v", q, err))
			return
		}
		min = d
	}
	traces := t.Snapshot(min)
	if traces == nil {
		traces = []trace.TraceJSON{}
	}
	body, err := json.MarshalIndent(struct {
		Traces []trace.TraceJSON `json:"traces"`
	}{traces}, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBytes(w, http.StatusOK, append(body, '\n'))
}

// writeBytes writes a complete JSON response with explicit Content-Length.
// The Content-Type value slice is shared and preallocated (net/http never
// mutates header value slices), so the only per-response header allocation
// is the Content-Length itoa.
func writeBytes(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonCTVal
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(status)
	w.Write(body)
}

func errorBody(err error) []byte {
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{err.Error()})
	return append(body, '\n')
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeBytes(w, status, errorBody(err))
}
