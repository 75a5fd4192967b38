package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/remotestore"
	"repro/internal/scenario"
	"repro/internal/store"
)

// cancelEval parks until the run's Cancel channel fires — the
// deterministic probe for context propagation through the whole stack
// (request → flight → engine → EvalContext).
type cancelEval struct{}

var cancelEntered = make(chan struct{}, 16)

func (cancelEval) Spec() string { return "testcancel" }

func (cancelEval) Evaluate(ctx *scenario.EvalContext) (float64, error) {
	cancelEntered <- struct{}{}
	select {
	case <-ctx.Cancel:
		return 0, errors.New("solve aborted by cancellation")
	case <-time.After(30 * time.Second):
		return 0, errors.New("cancellation never propagated")
	}
}

// wedgeEval parks until released — a solver that hangs forever, for the
// /healthz wedge detector. Each test arms it with arm.
type wedgeEval struct{}

var wedgeEntered, wedgeRelease chan struct{}

func (wedgeEval) Spec() string { return "testwedge" }

func (wedgeEval) Evaluate(ctx *scenario.EvalContext) (float64, error) {
	wedgeEntered <- struct{}{}
	<-wedgeRelease
	return 1, nil
}

func init() {
	scenario.RegisterEvaluator("testcancel", func(p scenario.Params) (scenario.Evaluator, error) {
		return cancelEval{}, p.Reader().Err()
	})
	scenario.RegisterEvaluator("testwedge", func(p scenario.Params) (scenario.Evaluator, error) {
		return wedgeEval{}, p.Reader().Err()
	})
}

// putEntry PUTs raw TBRS bytes and returns the status.
func putEntry(t *testing.T, url, addr string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url+"/v1/result/"+addr, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", remotestore.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// getRaw GETs a result in the raw TBRS representation.
func getRaw(t *testing.T, url, addr string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/result/"+addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", remotestore.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestPutAndRawGet: the peer-replication wire — a CRC-verified PUT lands
// in the store, the raw GET returns byte-identical codec bytes, and every
// malformed upload is rejected before touching disk.
func TestPutAndRawGet(t *testing.T) {
	srv, hs := newTestServer(t, t.TempDir(), 4)
	vals := []float64{3.25, -1, 0.5}
	addr := store.Addr("pushed point")
	entry := store.EncodeValues(vals)

	if status := putEntry(t, hs.URL, addr, entry); status != http.StatusNoContent {
		t.Fatalf("PUT: %d", status)
	}
	if got, ok := srv.cfg.Store.LoadAddr(addr); !ok || got[2] != 0.5 {
		t.Fatalf("PUT did not land in the store: %v %v", got, ok)
	}
	status, raw := getRaw(t, hs.URL, addr)
	if status != http.StatusOK || !bytes.Equal(raw, entry) {
		t.Fatalf("raw GET: %d, %d bytes (want the exact %d-byte entry)", status, len(raw), len(entry))
	}
	// The JSON representation still serves for humans.
	if status, body := get(t, hs.URL+"/v1/result/"+addr); status != http.StatusOK || !strings.Contains(string(body), "3.25") {
		t.Fatalf("JSON GET: %d %s", status, body)
	}

	// Corruption at the network boundary: flipped bit, truncation, garbage,
	// and a malformed address are all rejected; the store is untouched.
	flipped := append([]byte(nil), entry...)
	flipped[len(flipped)-2] ^= 0x08
	for name, put := range map[string]struct {
		addr string
		body []byte
		want int
	}{
		"bitflip":   {store.Addr("other"), flipped, http.StatusBadRequest},
		"truncated": {store.Addr("other"), entry[:len(entry)/2], http.StatusBadRequest},
		"garbage":   {store.Addr("other"), []byte("junk"), http.StatusBadRequest},
		"badaddr":   {"not-an-address", entry, http.StatusBadRequest},
	} {
		if status := putEntry(t, hs.URL, put.addr, put.body); status != put.want {
			t.Fatalf("%s: %d, want %d", name, status, put.want)
		}
	}
	if _, ok := srv.cfg.Store.LoadAddr(store.Addr("other")); ok {
		t.Fatal("a rejected PUT reached the store")
	}
	if got := metric(t, hs.URL, "result_puts_rejected_total"); got != 4 {
		t.Fatalf("rejected-put metric: %d, want 4", got)
	}

	// Without a store there is nothing to accept into.
	_, hsNoStore := newTestServer(t, "", 4)
	if status := putEntry(t, hsNoStore.URL, addr, entry); status != http.StatusNotImplemented {
		t.Fatalf("PUT without store: %d", status)
	}
}

// TestRequestTimeoutAnswers504: a solve that outlives RequestTimeout is
// aborted through the context chain and reported as a gateway timeout.
func TestRequestTimeoutAnswers504(t *testing.T) {
	cache := scenario.NewCache()
	eng := &scenario.Engine{Parallel: 1, Cache: cache, SkipInfeasible: true}
	srv := New(Config{Engine: eng, Cache: cache, MaxJobs: 2, RequestTimeout: 60 * time.Millisecond})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	status, body := postEval(t, hs.URL, "topo=rrg:n=8,deg=3 traffic=none eval=testcancel runs=1 seed=1")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %s", status, body)
	}
	<-cancelEntered // drain the signal
	if got := metric(t, hs.URL, "eval_timeouts_total"); got != 1 {
		t.Fatalf("timeout metric: %d", got)
	}
	// The slot is free again: a quick grid serves normally.
	if status, body := postEval(t, hs.URL, testGridQuick); status != http.StatusOK {
		t.Fatalf("post-timeout eval: %d %s", status, body)
	}
}

// TestDisconnectCancelsSolve: when the only client requesting a grid goes
// away, the in-flight solve is aborted and its job slot freed — a dropped
// connection cannot strand solver work.
func TestDisconnectCancelsSolve(t *testing.T) {
	_, hs := newTestServer(t, "", 1) // ONE slot: a leak would wedge the server
	grid := "topo=rrg:n=8,deg=4 traffic=none eval=testcancel runs=1 seed=1"

	body, _ := json.Marshal(EvalRequest{Grid: grid})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/eval", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-cancelEntered // the solve is running and parked on its Cancel channel
	cancel()        // the client hangs up
	if err := <-errc; err == nil {
		t.Fatal("canceled request reported success")
	}

	// The abort propagates and the slot frees: the next (distinct) eval on
	// the single-slot server must be accepted and succeed.
	deadline := time.After(10 * time.Second)
	for {
		status, _ := postEval(t, hs.URL, testGridQuick)
		if status == http.StatusOK {
			break
		}
		select {
		case <-deadline:
			t.Fatal("job slot never freed after client disconnect")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if got := metric(t, hs.URL, "eval_canceled_total"); got != 1 {
		t.Fatalf("canceled metric: %d", got)
	}
}

// TestHealthzDegradedAndWedged walks the health ladder: ok → degraded
// (remote tier failing; still 200, still serving) → wedged (job queue
// full with no progress; 503).
func TestHealthzDegradedAndWedged(t *testing.T) {
	// Degraded: a remote client that has just failed against a dead peer.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	remote := remotestore.New(remotestore.Options{BaseURL: deadURL, Attempts: 1, Timeout: 200 * time.Millisecond})

	cache := scenario.NewCache()
	eng := &scenario.Engine{Parallel: 1, Cache: cache, SkipInfeasible: true}
	srv := New(Config{Engine: eng, Cache: cache, MaxJobs: 1, Remote: remote, WedgeAfter: 60 * time.Millisecond})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	release := arm(t, &wedgeEntered, &wedgeRelease)

	var rep struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	check := func(wantStatus int, wantState string) {
		t.Helper()
		status, body := get(t, hs.URL+"/healthz")
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("healthz body %q: %v", body, err)
		}
		if status != wantStatus || rep.Status != wantState {
			t.Fatalf("healthz: %d %s, want %d %s", status, body, wantStatus, wantState)
		}
	}

	check(http.StatusOK, "ok")
	remote.Load("some key") // fails against the dead peer → recent errors
	check(http.StatusOK, "degraded")
	if len(rep.Reasons) == 0 {
		t.Fatal("degraded report carries no reasons")
	}

	// Wedged: the one slot is stuck in a parked solve with no turnover.
	// (Raw POST, not the postEval helper — t.Fatal is off-limits in a
	// goroutine, and this request only returns once the test releases it.)
	go func() {
		body := strings.NewReader(`{"grid": "topo=rrg:n=8,deg=3 traffic=none eval=testwedge runs=1 seed=1"}`)
		if resp, err := http.Post(hs.URL+"/v1/eval", "application/json", body); err == nil {
			resp.Body.Close()
		}
	}()
	<-wedgeEntered
	time.Sleep(100 * time.Millisecond) // exceed WedgeAfter with the queue full
	status, body := get(t, hs.URL+"/healthz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("wedged healthz: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &rep); err != nil || rep.Status != "wedged" {
		t.Fatalf("wedged report: %s", body)
	}
	release()
}

// chaosGrids are the workload of the fleet tests — small enough to solve
// in milliseconds, varied enough to cover mcf and structural evaluators
// plus a sweep.
var chaosGrids = []string{
	"topo=rrg:n=12,deg=4,sps=2 traffic=permutation eval=mcf runs=2 eps=0.2 seed=3",
	"topo=rrg:n=10,deg=3,sps=1 traffic=permutation eval=aspl runs=2 seed=1",
	"topo=rrg:n=8,deg=3,sps=1 traffic=permutation eval=aspl sweep=deg:3..5 runs=2 seed=2",
}

// referenceBytes evaluates every chaos grid on a fresh, clean,
// single-process engine — the ground truth the fleet must match.
func referenceBytes(t *testing.T) map[string][]byte {
	t.Helper()
	ref := map[string][]byte{}
	for _, grid := range chaosGrids {
		resp, err := EvalGrid(context.Background(), &scenario.Engine{Parallel: 1, SkipInfeasible: true}, grid, Defaults{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := resp.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		ref[grid] = b
	}
	return ref
}

// TestChaosFleetByteIdentical is the chaos smoke: replica B shares
// results with replica A over a fault-injected wire (20% transport
// errors, 5% corrupted payloads, injected latency). Every response B
// serves must be byte-identical to a clean single-process evaluation —
// faults may cost retries and duplicate solves, never wrong bytes, and
// must never surface as request errors.
func TestChaosFleetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver evaluation; skipped in -short")
	}
	ref := referenceBytes(t)

	// Replica A: a healthy peer with a persistent store, pre-warmed with
	// the first grid so B exercises the remote-hit path, not just misses.
	_, hsA := newTestServer(t, t.TempDir(), 8)
	if status, body := postEval(t, hsA.URL, chaosGrids[0]); status != http.StatusOK {
		t.Fatalf("warming A: %d %s", status, body)
	}

	// Replica B: its remote tier speaks to A through the fault injector.
	fcfg, err := faultinject.ParseSpec("seed=11,error=0.2,corrupt=0.05,latency=200us,latencyprob=0.3")
	if err != nil {
		t.Fatal(err)
	}
	remote := remotestore.New(remotestore.Options{
		BaseURL:   hsA.URL,
		Transport: faultinject.NewTransport(nil, fcfg),
		Timeout:   2 * time.Second,
		// A small breaker so the chaos run also exercises open/half-open
		// transitions under the 20% error rate.
		BreakerThreshold: 3, BreakerCooldown: 50 * time.Millisecond,
	})
	diskB, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := store.NewTiered(diskB, remote, store.TieredOptions{})
	cacheB := scenario.NewCache()
	cacheB.SetBackend(tiered)
	engB := &scenario.Engine{Parallel: 2, Cache: cacheB, SkipInfeasible: true}
	srvB := New(Config{Engine: engB, Cache: cacheB, Store: diskB, MaxJobs: 8, Remote: remote, Tiered: tiered})
	hsB := httptest.NewServer(srvB.Handler())
	t.Cleanup(hsB.Close)

	// Three passes over every grid: cold (remote hits + local solves under
	// faults), then warm replays (disk hits) — all byte-identical to the
	// clean reference, all 200s.
	for pass := 0; pass < 3; pass++ {
		for _, grid := range chaosGrids {
			status, body := postEval(t, hsB.URL, grid)
			if status != http.StatusOK {
				t.Fatalf("pass %d grid %q: status %d %s — faults must degrade, never error", pass, grid, status, body)
			}
			if !bytes.Equal(body, ref[grid]) {
				t.Fatalf("pass %d grid %q: response differs from the clean reference\n--- fleet ---\n%s--- reference ---\n%s",
					pass, grid, body, ref[grid])
			}
		}
	}

	rs := remote.Stats()
	if rs.Loads == 0 {
		t.Fatal("chaos run never touched the remote tier")
	}
	if rs.Failures == 0 {
		t.Fatalf("fault injector injected nothing (stats %+v) — the chaos run tested a calm sea", rs)
	}
	t.Logf("chaos: %d loads (%d hits), %d failures, %d retries, %d corrupt, %d breaker opens, %d short circuits",
		rs.Loads, rs.LoadHits, rs.Failures, rs.Retries, rs.Corrupt, rs.BreakerOpens, rs.ShortCircuits)
}

// TestExactlyOnceColdSolveSharedPool: with faults off and claim leases
// on, two replicas sharing one store directory that are hit with the same
// cold grid concurrently solve each point exactly once fleet-wide.
func TestExactlyOnceColdSolveSharedPool(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver evaluation; skipped in -short")
	}
	dir := t.TempDir()
	grid := chaosGrids[2] // 3-point sweep
	const points = 3

	type replica struct {
		st *store.Store
		hs *httptest.Server
	}
	mk := func(owner string) replica {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tiered := store.NewTiered(st, nil, store.TieredOptions{
			LeaseTTL: 10 * time.Second, Poll: 2 * time.Millisecond, Owner: owner,
		})
		cache := scenario.NewCache()
		cache.SetBackend(tiered)
		eng := &scenario.Engine{Parallel: 2, Cache: cache, SkipInfeasible: true}
		srv := New(Config{Engine: eng, Cache: cache, Store: st, MaxJobs: 4, Tiered: tiered})
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		return replica{st: st, hs: hs}
	}
	a, b := mk("replica-a"), mk("replica-b")

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	for _, r := range []replica{a, b} {
		go func(url string) {
			st, body := postEval(t, url, grid)
			results <- result{st, body}
		}(r.hs.URL)
	}
	ra, rb := <-results, <-results
	if ra.status != http.StatusOK || rb.status != http.StatusOK {
		t.Fatalf("statuses: %d / %d", ra.status, rb.status)
	}
	if !bytes.Equal(ra.body, rb.body) {
		t.Fatal("replicas answered different bytes for the same grid")
	}

	wa, wb := a.st.Stats().Writes, b.st.Stats().Writes
	if wa+wb != points {
		t.Fatalf("fleet-wide cold solves: %d writes (A=%d B=%d), want exactly %d — claims failed to dedup", wa+wb, wa, wb, points)
	}
}
