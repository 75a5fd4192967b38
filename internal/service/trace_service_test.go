package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/remotestore"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/trace"
)

// newTracedServer wires a server whose tracer samples every request,
// backed by a disk store so the tier spans appear in traces.
func newTracedServer(t *testing.T, dir string) (*trace.Tracer, *store.Store, *httptest.Server) {
	t.Helper()
	tr := trace.New(trace.Options{Sample: 1})
	var st *store.Store
	cache := scenario.NewCache()
	if dir != "" {
		var err error
		st, err = store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache.SetBackend(st)
	}
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true}
	srv := New(Config{Engine: eng, Cache: cache, Store: st, MaxJobs: 4, Tracer: tr})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return tr, st, hs
}

// postEvalTraced is postEval plus the X-Trace-Id response header.
func postEvalTraced(t *testing.T, url, grid string) (int, []byte, string) {
	t.Helper()
	body, err := json.Marshal(EvalRequest{Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes(), resp.Header.Get("X-Trace-Id")
}

// tracesJSON fetches and decodes GET /debug/traces.
func tracesJSON(t *testing.T, url, query string) []trace.TraceJSON {
	t.Helper()
	status, body := get(t, url+"/debug/traces"+query)
	if status != http.StatusOK {
		t.Fatalf("GET /debug/traces%s: %d %s", query, status, body)
	}
	var rep struct {
		Traces []trace.TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decoding /debug/traces: %v\n%s", err, body)
	}
	if rep.Traces == nil {
		t.Fatalf("traces is null, want [] or entries:\n%s", body)
	}
	return rep.Traces
}

// findTrace returns the retained trace with the given id, or fails.
func findTrace(t *testing.T, traces []trace.TraceJSON, id string) trace.TraceJSON {
	t.Helper()
	for _, tr := range traces {
		if tr.TraceID == id {
			return tr
		}
	}
	t.Fatalf("no trace with id %s among %d retained traces", id, len(traces))
	return trace.TraceJSON{}
}

// spanNames collects the set of span names in a trace.
func spanNames(tr trace.TraceJSON) map[string]bool {
	names := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestTraceColdAndWarmEval samples a cold eval and demands the full span
// chain — HTTP root, flight leadership, the engine's per-point span, the
// solver phase, and the store tier probes — then checks a warm replay of
// the same grid shows the byte-cache answering instead.
func TestTraceColdAndWarmEval(t *testing.T) {
	// An mcf grid, so the solver-phase span appears (aspl has no solve).
	const grid = "topo=rrg:n=8,deg=3,sps=1 traffic=permutation eval=mcf runs=1 eps=0.3 seed=1"
	_, _, hs := newTracedServer(t, t.TempDir())

	status, _, coldID := postEvalTraced(t, hs.URL, grid)
	if status != http.StatusOK {
		t.Fatalf("cold eval: %d", status)
	}
	if coldID == "" {
		t.Fatal("cold eval: no X-Trace-Id header on a sample-everything server")
	}
	cold := findTrace(t, tracesJSON(t, hs.URL, ""), coldID)
	if cold.Root != "POST /v1/eval" {
		t.Fatalf("cold trace root: got %q want %q", cold.Root, "POST /v1/eval")
	}
	names := spanNames(cold)
	for _, want := range []string{"POST /v1/eval", "flight.lead", "point", "mcf.solve", "tier.store"} {
		if !names[want] {
			t.Errorf("cold trace missing span %q (have %v)", want, names)
		}
	}

	// Every span except the root must name a parent inside the trace, so
	// the tree reconstructs.
	ids := make(map[string]bool, len(cold.Spans))
	for _, sp := range cold.Spans {
		ids[sp.SpanID] = true
	}
	for i, sp := range cold.Spans {
		if i == 0 {
			continue
		}
		if sp.Parent == "" || !ids[sp.Parent] {
			t.Errorf("span %q: parent %q not in trace", sp.Name, sp.Parent)
		}
	}

	status, _, warmID := postEvalTraced(t, hs.URL, grid)
	if status != http.StatusOK {
		t.Fatalf("warm eval: %d", status)
	}
	if warmID == "" || warmID == coldID {
		t.Fatalf("warm eval trace id: %q (cold was %q)", warmID, coldID)
	}
	warm := findTrace(t, tracesJSON(t, hs.URL, ""), warmID)
	wnames := spanNames(warm)
	if !wnames["resp.cache"] {
		t.Errorf("warm trace missing resp.cache span (have %v)", wnames)
	}
	if wnames["flight.lead"] || wnames["mcf.solve"] {
		t.Errorf("warm trace re-solved: spans %v", wnames)
	}

	// ?min filters by duration; an absurd floor leaves nothing.
	if got := tracesJSON(t, hs.URL, "?min=10h"); len(got) != 0 {
		t.Fatalf("?min=10h kept %d traces", len(got))
	}
	if status, body := get(t, hs.URL+"/debug/traces?min=bogus"); status != http.StatusBadRequest {
		t.Fatalf("?min=bogus: got %d %s, want 400", status, body)
	}
}

// TestTracesDisabled404 keeps /debug/traces an explicit 404 when the
// server runs without a tracer, so operators learn the flag, not a
// silent empty list.
func TestTracesDisabled404(t *testing.T) {
	_, hs := newTestServer(t, "", 4)
	status, body := get(t, hs.URL+"/debug/traces")
	if status != http.StatusNotFound {
		t.Fatalf("got %d, want 404", status)
	}
	if !strings.Contains(string(body), "trace-sample") {
		t.Fatalf("404 body should point at the flag: %s", body)
	}
}

// TestTracePeerJoinsCallerTrace is the cross-process propagation check:
// replica A misses locally, fetches the result from replica B through
// the remote tier, and B — receiving A's sampled traceparent — records
// its serving spans under A's trace id.
func TestTracePeerJoinsCallerTrace(t *testing.T) {
	// Replica B solves the grid first, so A's eval is a pure peer fetch.
	trB, _, hsB := newTracedServer(t, t.TempDir())
	if status, _, _ := postEvalTraced(t, hsB.URL, testGridQuick); status != http.StatusOK {
		t.Fatalf("warming B: %d", status)
	}

	trA := trace.New(trace.Options{Sample: 1})
	diskA, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remote := remotestore.New(remotestore.Options{BaseURL: hsB.URL, Timeout: 5 * time.Second})
	tiered := store.NewTiered(diskA, remote, store.TieredOptions{})
	cacheA := scenario.NewCache()
	cacheA.SetBackend(tiered)
	engA := &scenario.Engine{Cache: cacheA, SkipInfeasible: true}
	srvA := New(Config{Engine: engA, Cache: cacheA, Store: diskA, MaxJobs: 4,
		Remote: remote, Tiered: tiered, Tracer: trA})
	hsA := httptest.NewServer(srvA.Handler())
	t.Cleanup(hsA.Close)

	status, _, id := postEvalTraced(t, hsA.URL, testGridQuick)
	if status != http.StatusOK {
		t.Fatalf("eval via A: %d", status)
	}
	if id == "" {
		t.Fatal("no X-Trace-Id from A")
	}

	// A's trace shows the peer tier answering.
	aTrace := findTrace(t, trA.Snapshot(0), id)
	anames := spanNames(aTrace)
	if !anames["tier.peer"] {
		t.Fatalf("A's trace missing tier.peer span (have %v)", anames)
	}
	if anames["mcf.solve"] {
		t.Fatalf("A re-solved despite a warm peer: spans %v", anames)
	}

	// B retained a trace under the SAME id: its result-serving request
	// joined A's trace via the forwarded traceparent.
	bTrace := findTrace(t, trB.Snapshot(0), id)
	if !strings.HasPrefix(bTrace.Root, "GET /v1/result/") {
		t.Fatalf("B's joined trace root: %q, want a result read", bTrace.Root)
	}
	// B's root span is parented to A's requesting span, not floating.
	if len(bTrace.Spans) == 0 || bTrace.Spans[0].Parent == "" {
		t.Fatalf("B's root span should carry A's span as parent: %+v", bTrace.Spans)
	}
}

// TestSlowRequestCaptured drives the always-sample-slow rule with a 1ns
// threshold and head sampling off: the request must still get a trace
// id, a slow-flagged row in the ring with grid and source attrs, and a
// structured warn line carrying the same id.
func TestSlowRequestCaptured(t *testing.T) {
	tr := trace.New(trace.Options{Slow: time.Nanosecond})
	var logBuf bytes.Buffer
	cache := scenario.NewCache()
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true}
	srv := New(Config{Engine: eng, Cache: cache, MaxJobs: 4, Tracer: tr,
		Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	status, _, id := postEvalTraced(t, hs.URL, testGridQuick)
	if status != http.StatusOK {
		t.Fatalf("eval: %d", status)
	}
	if id == "" {
		t.Fatal("slow capture did not echo X-Trace-Id")
	}
	rec := findTrace(t, tracesJSON(t, hs.URL, ""), id)
	if !rec.Slow {
		t.Fatalf("captured trace not flagged slow: %+v", rec)
	}
	if len(rec.Spans) == 0 {
		t.Fatal("captured trace has no spans")
	}
	attrs := rec.Spans[0].Attrs
	if attrs["grid"] != testGridQuick {
		t.Errorf("slow capture grid attr: %v", attrs)
	}
	if src, ok := attrs["source"].(string); !ok || src == "" {
		t.Errorf("slow capture source attr: %v", attrs)
	}
	logLine := logBuf.String()
	if !strings.Contains(logLine, "slow request") || !strings.Contains(logLine, id) {
		t.Errorf("slow log line missing marker or trace id %s:\n%s", id, logLine)
	}
	if !strings.Contains(logLine, "route=eval") {
		t.Errorf("slow log line missing route class:\n%s", logLine)
	}

	// Non-eval routes get their line from the middleware instead.
	logBuf.Reset()
	if status, _ := get(t, hs.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz: %d", status)
	}
	if line := logBuf.String(); !strings.Contains(line, "route=other") {
		t.Errorf("middleware slow line for /healthz missing route=other:\n%s", line)
	}

	// /metrics counts the slow captures.
	if n := metric(t, hs.URL, "traces_slow_total"); n < 2 {
		t.Errorf("traces_slow_total = %d, want >= 2", n)
	}
}

// TestWarmEvalAllocsTraced re-runs the warm-dataplane allocation gate
// with a tracer installed at the serve defaults (0.1% head sampling,
// 250ms slow threshold). Unsampled requests must cost the same alloc
// budget as an untraced server: the tracing fast path is one atomic
// add and two clock reads.
func TestWarmEvalAllocsTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cache := scenario.NewCache()
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true}
	srv := New(Config{Engine: eng, Cache: cache, MaxJobs: 4,
		Tracer: trace.New(trace.Options{Sample: 0.001, Slow: 250 * time.Millisecond})})
	h := srv.Handler()
	payload, err := json.Marshal(EvalRequest{Grid: testGridQuick})
	if err != nil {
		t.Fatal(err)
	}
	body := &evalBody{bytes.NewReader(payload)}
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", body)
	w := &nullRW{h: http.Header{}}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		t.Fatalf("prime request: status %d", w.status)
	}
	avg := testing.AllocsPerRun(200, func() {
		body.Seek(0, 0)
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	const budget = 12
	if avg > budget {
		t.Fatalf("warm eval with default tracing: %.1f allocs/op, budget %d", avg, budget)
	}
}
