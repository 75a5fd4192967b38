package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/scenario"
)

// The warm-dataplane helpers: one warm request through the full handler
// stack against a reusable request and a null ResponseWriter, so
// allocs/op is the service's own cost — no client, no sockets, no
// recorder. TestWarmEvalAllocs and TestWarmEvalAllocsTraced pin that
// budget with them. The ServeEvalWarm benchmark that CI gates lives in
// internal/benchsuite, which this in-package test cannot import without
// an import cycle.

// nullRW is a ResponseWriter that discards the body and reuses its header
// map, so the alloc gates charge the handler's writes and nothing else.
type nullRW struct {
	h      http.Header
	status int
	n      int
}

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *nullRW) WriteHeader(s int)           { w.status = s }

// reset clears per-request state without reallocating the header map.
func (w *nullRW) reset() {
	w.status, w.n = 0, 0
	for k := range w.h {
		delete(w.h, k)
	}
}

// evalBody is a replayable request body: Seek(0) rearms it for the next
// iteration without allocating a fresh reader.
type evalBody struct{ *bytes.Reader }

func (evalBody) Close() error { return nil }

// newWarmBench wires a memory-only server, primes one cheap grid, and
// returns a rearming request for it.
func newWarmBench(b testing.TB, grid string) (http.Handler, *http.Request, *evalBody, *nullRW) {
	b.Helper()
	cache := scenario.NewCache()
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true}
	srv := New(Config{Engine: eng, Cache: cache, MaxJobs: 4})
	h := srv.Handler()
	payload, err := json.Marshal(EvalRequest{Grid: grid})
	if err != nil {
		b.Fatal(err)
	}
	body := &evalBody{bytes.NewReader(payload)}
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", body)
	w := &nullRW{h: http.Header{}}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		b.Fatalf("prime request: status %d", w.status)
	}
	return h, req, body, w
}
