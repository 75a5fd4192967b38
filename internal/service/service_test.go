package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/store"
)

const testGrid = "topo=rrg:n=16,deg=6,sps=2 traffic=permutation eval=mcf sweep=deg:4..6:2 runs=2 eps=0.12 seed=1"

// newTestServer wires a service exactly as `topobench serve -cache-dir`
// does: tiered cache over a store in dir (or memory-only when dir is "").
func newTestServer(t *testing.T, dir string, maxJobs int) (*Server, *httptest.Server) {
	t.Helper()
	cache := scenario.NewCache()
	var st *store.Store
	if dir != "" {
		var err error
		st, err = store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache.SetBackend(st)
	}
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true}
	srv := New(Config{Engine: eng, Cache: cache, Store: st, MaxJobs: maxJobs})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func postEval(t *testing.T, url, grid string) (int, []byte) {
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
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// metric extracts one gauge value from a /metrics scrape.
func metric(t *testing.T, url, name string) int64 {
	t.Helper()
	_, body := get(t, url+"/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, "topobench_"+name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestEvalMatchesEngineAndPersists is the end-to-end contract: the HTTP
// response equals a direct engine evaluation byte-for-byte; a re-POST is
// byte-identical; and a RESTARTED service (fresh cache + fresh store
// handle, same dir) answers the same bytes from the store without
// re-solving.
func TestEvalMatchesEngineAndPersists(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver evaluation; skipped in -short")
	}
	dir := t.TempDir()
	_, hs := newTestServer(t, dir, 4)

	status, cold := postEval(t, hs.URL, testGrid)
	if status != http.StatusOK {
		t.Fatalf("cold eval: %d %s", status, cold)
	}
	// Direct engine evaluation, cold, no cache: the reference bytes.
	ref, err := EvalGrid(context.Background(), &scenario.Engine{SkipInfeasible: true}, testGrid, Defaults{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := ref.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, refBytes) {
		t.Fatalf("service response differs from direct evaluation:\n--- service ---\n%s--- direct ---\n%s", cold, refBytes)
	}

	status, warm := postEval(t, hs.URL, testGrid)
	if status != http.StatusOK || !bytes.Equal(warm, cold) {
		t.Fatalf("same-process warm replay differs (status %d)", status)
	}

	// Restart: a second service over the same store dir.
	srv2, hs2 := newTestServer(t, dir, 4)
	status, restarted := postEval(t, hs2.URL, testGrid)
	if status != http.StatusOK || !bytes.Equal(restarted, cold) {
		t.Fatalf("cross-process warm replay differs (status %d):\n%s", status, restarted)
	}
	if cs := srv2.cfg.Cache.Stats(); cs.StoreHits != 2 || cs.Misses != 0 {
		t.Fatalf("restarted service did not answer from the store: %+v", cs)
	}
	if got := metric(t, hs2.URL, "cache_store_hits_total"); got != 2 {
		t.Fatalf("store-hit metric: %d, want 2", got)
	}
}

// TestStoreBackedServeKeepsNoMemoryCopy is the one-tier rule at the
// daemon: with a store attached, solved points live in the store alone.
// Two distinct grids sharing a point leave no resident memory entries,
// and the second grid's copy of the shared point is a store hit. Point i
// of a grid solves under seed+i, so the second grid starts one seed later
// to share deg=8 exactly.
func TestStoreBackedServeKeepsNoMemoryCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver evaluation; skipped in -short")
	}
	_, hs := newTestServer(t, t.TempDir(), 4)
	for _, tail := range []string{"sweep=deg:6..8:2 runs=2 eps=0.12 seed=1", "sweep=deg:8..10:2 runs=2 eps=0.12 seed=2"} {
		grid := "topo=rrg:n=16,deg=6,sps=2 traffic=permutation eval=mcf " + tail
		if status, body := postEval(t, hs.URL, grid); status != http.StatusOK {
			t.Fatalf("%s: %d %s", grid, status, body)
		}
	}
	if got := metric(t, hs.URL, "cache_entries"); got != 0 {
		t.Fatalf("store-backed daemon holds %d in-memory entries, want 0", got)
	}
	if got := metric(t, hs.URL, "cache_store_hits_total"); got != 1 {
		t.Fatalf("shared point: cache_store_hits_total %d, want 1", got)
	}
}

// TestResultByContentAddress: every point key in an eval response is
// retrievable via GET /v1/result/<key> with matching values.
func TestResultByContentAddress(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver evaluation; skipped in -short")
	}
	_, hs := newTestServer(t, t.TempDir(), 4)
	status, body := postEval(t, hs.URL, testGrid)
	if status != http.StatusOK {
		t.Fatalf("eval: %d %s", status, body)
	}
	var resp EvalResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(resp.Points))
	}
	for _, p := range resp.Points {
		status, rb := get(t, hs.URL+"/v1/result/"+p.Key)
		if status != http.StatusOK {
			t.Fatalf("result %s: %d %s", p.Key, status, rb)
		}
		var stored struct {
			Key    string    `json:"key"`
			Values []float64 `json:"values"`
		}
		if err := json.Unmarshal(rb, &stored); err != nil {
			t.Fatal(err)
		}
		if stored.Key != p.Key || !reflect.DeepEqual(stored.Values, p.Values) {
			t.Fatalf("stored result mismatch: %+v vs point %+v", stored, p)
		}
	}
	if status, _ := get(t, hs.URL+"/v1/result/"+strings.Repeat("ab", 32)); status != http.StatusNotFound {
		t.Fatalf("unknown address: %d, want 404", status)
	}
	if status, _ := get(t, hs.URL+"/v1/result/nothex"); status != http.StatusNotFound {
		t.Fatalf("malformed address: %d, want 404", status)
	}
}

// TestScenariosAndHealth: the registry listing includes the PR's new
// kinds, and the liveness probe answers.
func TestScenariosAndHealth(t *testing.T) {
	_, hs := newTestServer(t, "", 4)
	status, body := get(t, hs.URL+"/v1/scenarios")
	if status != http.StatusOK {
		t.Fatalf("scenarios: %d", status)
	}
	var reg struct {
		Topologies []string `json:"topologies"`
		Traffics   []string `json:"traffics"`
		Evaluators []string `json:"evaluators"`
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	if !contains(reg.Topologies, "expand") || !contains(reg.Topologies, "rrg") {
		t.Fatalf("topologies missing expected kinds: %v", reg.Topologies)
	}
	if !contains(reg.Evaluators, "failures") || !contains(reg.Evaluators, "mcf") {
		t.Fatalf("evaluators missing expected kinds: %v", reg.Evaluators)
	}
	if status, body := get(t, hs.URL+"/healthz"); status != http.StatusOK || string(body) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz: %d %q", status, body)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestBadRequests: malformed JSON, a body with bytes after its JSON
// object, a body over maxEvalBody, an empty grid, a bad grammar, an ε the
// solver cannot honor, a grid too large to materialize and an mcf point
// with no traffic (the shortest line the grammar accepts) all answer 400
// with a JSON error on both /v1/eval and /v1/jobs, never 500 or 202, and
// write nothing to the store — an unsolved NaN-ε point must never be
// cached or persisted as a result. Nothing panics, and the daemon stays
// healthy.
func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir(), 4)
	reqBody := func(grid string) string {
		b, err := json.Marshal(EvalRequest{Grid: grid})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// The padding spaces normalize away, so only the size is wrong.
	prefix := `{"grid": "` + testGrid
	tooLarge := prefix + strings.Repeat(" ", maxEvalBody+1-len(prefix)-len(`"}`)) + `"}`
	bodies := []string{"{not json", reqBody(testGrid) + ` {"grid": "x"}`, tooLarge}
	for _, grid := range []string{"", "traffic=permutation", "topo=nope:n=4", "topo=rrg bogus=1",
		testGrid + " eps=NaN", testGrid + " eps=-1", testGrid + " eps=0.7", testGrid + " eps=Inf",
		testGrid + " sweep=deg:0..2000000000", testGrid + " sweep=deg:0..9223372036854775807",
		testGrid + " runs=1000000000", testGrid + " runs=-1", "topo=rrg:n=10,deg=4,sps=1"} {
		bodies = append(bodies, reqBody(grid))
	}
	for _, route := range []string{"/v1/eval", "/v1/jobs"} {
		for _, body := range bodies {
			resp, err := http.Post(hs.URL+route, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			shown := body
			if len(shown) > 200 {
				shown = fmt.Sprintf("%.200s... (%d bytes)", body, len(body))
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %q: status %d body %s", route, shown, resp.StatusCode, data)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Fatalf("%s %q: error body %s", route, shown, data)
			}
		}
	}
	if got := metric(t, hs.URL, "store_writes_total"); got != 0 {
		t.Fatalf("rejected requests wrote %d store entries", got)
	}
	if got := metric(t, hs.URL, "jobs_submitted_total"); got != 0 {
		t.Fatalf("rejected requests submitted %d jobs", got)
	}
	if got := metric(t, hs.URL, "eval_panics_total"); got != 0 {
		t.Fatalf("rejected requests panicked %d times", got)
	}
	if status, body := get(t, hs.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz after rejected requests: %d %s", status, body)
	}
}

// blockEval is a registry evaluator that parks until released — the
// deterministic way to hold a job slot occupied while the test probes
// backpressure and singleflight. Each test arms it with arm.
type blockEval struct{}

var blockEntered, blockRelease chan struct{}

// arm gives a parking test evaluator (testblock, testwedge) a fresh entry
// signal and release channel for the calling test, so the test also
// passes when run again (-count=2). The returned release is idempotent
// and also runs at cleanup; call arm after starting the test server, so
// the release runs before the server's Close waits on the parked request.
func arm(t *testing.T, entered, release *chan struct{}) func() {
	*entered = make(chan struct{}, 16) // a stray evaluation signals without blocking
	ch := make(chan struct{})
	*release = ch
	var once sync.Once
	done := func() { once.Do(func() { close(ch) }) }
	t.Cleanup(done)
	return done
}

func (blockEval) Spec() string { return "testblock" }

func (blockEval) Evaluate(ctx *scenario.EvalContext) (float64, error) {
	blockEntered <- struct{}{}
	<-blockRelease
	return 1, nil
}

// panicEval simulates a buggy registry evaluator.
type panicEval struct{}

func (panicEval) Spec() string { return "testpanic" }

func (panicEval) Evaluate(ctx *scenario.EvalContext) (float64, error) {
	panic("evaluator bug")
}

// meetPanicEval is a buggy evaluator whose runs meet at a barrier of two
// before panicking, so that under a bound of 2 one of a point's two runs
// panics on a runner helper goroutine. Each test arms the barrier by
// zeroing meetPanicArrived and making a fresh meetPanicAll.
type meetPanicEval struct{}

var (
	meetPanicArrived atomic.Int32
	meetPanicAll     chan struct{}
)

func (meetPanicEval) Spec() string { return "testmeetpanic" }

func (meetPanicEval) Evaluate(ctx *scenario.EvalContext) (float64, error) {
	if meetPanicArrived.Add(1) == 2 {
		close(meetPanicAll)
	}
	select {
	case <-meetPanicAll:
	case <-time.After(10 * time.Second):
		return 0, errors.New("the second run never started")
	}
	panic("evaluator bug on a helper")
}

func init() {
	scenario.RegisterEvaluator("testblock", func(p scenario.Params) (scenario.Evaluator, error) {
		return blockEval{}, p.Reader().Err()
	})
	scenario.RegisterEvaluator("testpanic", func(p scenario.Params) (scenario.Evaluator, error) {
		return panicEval{}, p.Reader().Err()
	})
	scenario.RegisterEvaluator("testmeetpanic", func(p scenario.Params) (scenario.Evaluator, error) {
		return meetPanicEval{}, p.Reader().Err()
	})
}

// TestPanicDoesNotWedgeService: a panicking evaluation answers 500, and
// neither the flight entry nor the job slot leaks — the same grid and
// fresh grids still serve afterwards, even with a single job slot.
func TestPanicDoesNotWedgeService(t *testing.T) {
	_, hs := newTestServer(t, "", 1)
	grid := "topo=rrg:n=8,deg=3 traffic=none eval=testpanic runs=1 seed=1"
	for i := 0; i < 2; i++ { // twice: a wedged flight would hang the retry
		status, body := postEval(t, hs.URL, grid)
		if status != http.StatusInternalServerError {
			t.Fatalf("attempt %d: status %d body %s", i, status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "panicked") {
			t.Fatalf("attempt %d: error body %s", i, body)
		}
	}
	if status, body := postEval(t, hs.URL, testGridQuick); status != http.StatusOK {
		t.Fatalf("job slot leaked after panic: %d %s", status, body)
	}
}

// TestHelperPanicAnswers500: a run that panics on a runner helper
// goroutine, where nothing of the service's own recovers, still answers
// 500, counts one panic, and leaves the daemon healthy.
func TestHelperPanicAnswers500(t *testing.T) {
	runner.SetMaxInFlight(2)
	defer runner.SetMaxInFlight(0)
	meetPanicArrived.Store(0)
	meetPanicAll = make(chan struct{})
	_, hs := newTestServer(t, "", 1)
	status, body := postEval(t, hs.URL, "topo=rrg:n=8,deg=3 traffic=none eval=testmeetpanic runs=2 seed=1")
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); status != http.StatusInternalServerError || err != nil ||
		e.Error != "evaluation panicked: evaluator bug on a helper" {
		t.Fatalf("status %d body %s", status, body)
	}
	if got := metric(t, hs.URL, "eval_panics_total"); got != 1 {
		t.Fatalf("eval_panics_total = %d, want 1", got)
	}
	if status, body := get(t, hs.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz after the panic: %d %s", status, body)
	}
}

// TestBackpressureAndSingleflight: with one job slot, a second DISTINCT
// grid is rejected 429 while an IDENTICAL grid waits and shares the
// leader's bytes — one evaluation, two responses.
func TestBackpressureAndSingleflight(t *testing.T) {
	srv, hs := newTestServer(t, "", 1)
	release := arm(t, &blockEntered, &blockRelease)
	grid := "topo=rrg:n=8,deg=3 traffic=none eval=testblock runs=1 seed=1"

	type result struct {
		status int
		body   []byte
	}
	leader := make(chan result, 1)
	go func() {
		st, b := postEval(t, hs.URL, grid)
		leader <- result{st, b}
	}()
	<-blockEntered // the leader holds the only job slot now

	follower := make(chan result, 1)
	go func() {
		st, b := postEval(t, hs.URL, grid) // identical: must dedup, not 429
		follower <- result{st, b}
	}()
	// Wait until the follower has joined the flight (never evaluates).
	for srv.shared.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	status, body := postEval(t, hs.URL, "topo=rrg:n=8,deg=4 traffic=none eval=testblock runs=1 seed=1")
	if status != http.StatusTooManyRequests {
		t.Fatalf("distinct grid under full queue: %d %s", status, body)
	}
	if got := metric(t, hs.URL, "eval_rejected_total"); got != 1 {
		t.Fatalf("rejected metric: %d", got)
	}

	release()
	lr, fr := <-leader, <-follower
	if lr.status != http.StatusOK || fr.status != http.StatusOK {
		t.Fatalf("leader %d / follower %d", lr.status, fr.status)
	}
	if !bytes.Equal(lr.body, fr.body) {
		t.Fatal("singleflight follower got different bytes")
	}
	if got := metric(t, hs.URL, "eval_shared_total"); got != 1 {
		t.Fatalf("shared metric: %d", got)
	}
	// Only ONE evaluation ran for the two identical requests.
	select {
	case <-blockEntered:
		t.Fatal("identical grid evaluated twice despite singleflight")
	default:
	}
	// The queue drains: a fresh grid is accepted again.
	if status, body := postEval(t, hs.URL, testGridQuick); status != http.StatusOK {
		t.Fatalf("post-drain eval: %d %s", status, body)
	}
}

const testGridQuick = "topo=rrg:n=8,deg=3,sps=1 traffic=permutation eval=aspl runs=1 seed=1"
