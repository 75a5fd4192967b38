package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/store"
)

// lingerEval holds the late-waiter window open deterministically: its
// FIRST evaluation parks, acknowledges the flight's cancellation (so the
// flight is canceled-but-still-in-the-map), and only returns once
// released. Every later evaluation succeeds immediately.
type lingerEval struct{}

var (
	lingerFirst    atomic.Bool
	lingerEntered  = make(chan struct{}, 16)
	lingerCanceled = make(chan struct{}, 16)
	lingerRelease  = make(chan struct{}, 16)
)

func (lingerEval) Spec() string { return "testlinger" }

func (lingerEval) Evaluate(ctx *scenario.EvalContext) (float64, error) {
	if lingerFirst.CompareAndSwap(true, false) {
		lingerEntered <- struct{}{}
		<-ctx.Cancel
		lingerCanceled <- struct{}{}
		<-lingerRelease
		return 0, errors.New("solve aborted by cancellation")
	}
	return 1, nil
}

func init() {
	scenario.RegisterEvaluator("testlinger", func(p scenario.Params) (scenario.Evaluator, error) {
		return lingerEval{}, p.Reader().Err()
	})
}

// TestLateWaiterNeverSeesForeign499 pins the late-attach fix: a request
// arriving while a flight for the same grid is canceled (all PRIOR
// clients disconnected) but not yet torn down must get a fresh
// evaluation, not the canceled flight's replayed 499. Pre-fix, the new
// client attached to the dead flight and was told IT had disconnected.
func TestLateWaiterNeverSeesForeign499(t *testing.T) {
	lingerFirst.Store(true)
	srv, hs := newTestServer(t, "", 2)
	grid := "topo=rrg:n=8,deg=3 traffic=none eval=testlinger runs=1 seed=1"

	// Client 1 starts the flight and disconnects; the evaluator
	// acknowledges the cancellation but keeps the flight's teardown parked,
	// holding open the canceled-flight-in-the-map window.
	body, _ := json.Marshal(EvalRequest{Grid: grid})
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/eval", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req = req.WithContext(ctx)
	go func() {
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-lingerEntered
	cancel()
	<-lingerCanceled

	// Client 2 asks for the same grid, live and patient.
	shared0 := srv.shared.Load()
	type res struct {
		status int
		body   []byte
	}
	resc := make(chan res, 1)
	go func() {
		status, b := postEval(t, hs.URL, grid)
		resc <- res{status, b}
	}()

	var got res
	deadline := time.After(10 * time.Second)
poll:
	for {
		select {
		case got = <-resc:
			break poll
		case <-deadline:
			t.Fatal("late waiter never completed")
		case <-time.After(2 * time.Millisecond):
			if srv.shared.Load() > shared0 {
				// The late waiter attached to the canceled flight (the
				// pre-fix path): release the parked teardown so its replayed
				// bytes arrive, then fail on them below.
				select {
				case lingerRelease <- struct{}{}:
				default:
				}
			}
		}
	}
	lingerRelease <- struct{}{} // let the first flight's teardown finish either way

	if got.status != http.StatusOK {
		t.Fatalf("late waiter got %d %s — a canceled flight's 499 replayed to a live client", got.status, got.body)
	}
	// And the server is clean afterwards: the same grid still serves.
	if status, b := postEval(t, hs.URL, grid); status != http.StatusOK {
		t.Fatalf("post-race eval: %d %s", status, b)
	}
}

// submitJob POSTs a grid to /v1/jobs and returns the status plus the
// accepted job id (empty unless 202).
func submitJobReq(t *testing.T, url, grid string) (int, string) {
	t.Helper()
	body, _ := json.Marshal(EvalRequest{Grid: grid})
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, ""
	}
	var acc struct {
		Job  string `json:"job"`
		Poll string `json:"poll"`
	}
	if err := json.Unmarshal(data, &acc); err != nil || acc.Job == "" {
		t.Fatalf("malformed accept body: %s", data)
	}
	if acc.Poll != "/v1/jobs/"+acc.Job {
		t.Fatalf("poll path %q does not address job %q", acc.Poll, acc.Job)
	}
	return resp.StatusCode, acc.Job
}

type jobStatus struct {
	Job    string `json:"job"`
	Grid   string `json:"grid"`
	State  string `json:"state"`
	Done   uint32 `json:"done"`
	Total  uint32 `json:"total"`
	Result string `json:"result"`
	Error  string `json:"error"`
}

// pollState polls the job until its reported state is one of want (or
// the deadline passes).
func pollState(t *testing.T, url, id string, want ...string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		status, body := get(t, url+"/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("poll: %d %s", status, body)
		}
		var st jobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("poll body %q: %v", body, err)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q (want %v)", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobLifecycle: submit → 202 immediately → poll to done → result
// bytes equal the synchronous /v1/eval bytes for the same grid → DELETE
// discards the terminal record.
func TestJobLifecycle(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir(), 2)

	status, id := submitJobReq(t, hs.URL, testGridQuick)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d", status)
	}
	st := pollState(t, hs.URL, id, "done")
	if st.Done != st.Total || st.Total == 0 {
		t.Fatalf("done job progress %d/%d", st.Done, st.Total)
	}
	if st.Result == "" {
		t.Fatal("done status carries no result path")
	}
	rstatus, rbody := get(t, hs.URL+st.Result)
	if rstatus != http.StatusOK {
		t.Fatalf("result: %d %s", rstatus, rbody)
	}
	estatus, ebody := postEval(t, hs.URL, testGridQuick)
	if estatus != http.StatusOK {
		t.Fatalf("sync eval: %d", estatus)
	}
	if !bytes.Equal(rbody, ebody) {
		t.Fatalf("job result differs from the synchronous bytes\n--- job ---\n%s--- sync ---\n%s", rbody, ebody)
	}
	if got := metric(t, hs.URL, "jobs_done_total"); got != 1 {
		t.Fatalf("jobs done metric: %d", got)
	}

	// DELETE on a terminal job discards its record entirely.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete terminal job: %d", resp.StatusCode)
	}
	if gstatus, _ := get(t, hs.URL+"/v1/jobs/"+id); gstatus != http.StatusNotFound {
		t.Fatalf("discarded job still known: %d", gstatus)
	}
}

// TestJobSurvivesRestart: a finished job's record outlives the process —
// a fresh server over the same store dir answers the SAME job id with
// byte-identical result bytes (replayed through the warm store). An
// unfinished (queued) record left by a crash re-dispatches to completion.
func TestJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, hs1 := newTestServer(t, dir, 2)
	_, id := submitJobReq(t, hs1.URL, testGridQuick)
	pollState(t, hs1.URL, id, "done")
	_, ref := get(t, hs1.URL+"/v1/jobs/"+id+"/result")
	hs1.Close()

	// Simulate a crash mid-queue too: a second record that never ran.
	crashed := store.JobRecord{
		ID: "c0ffee", Grid: testGridQuick, State: store.JobQueued,
		Total: 1, Created: time.Now().UnixNano(), Updated: time.Now().UnixNano(),
	}
	if err := srv1.cfg.Store.SaveJob(crashed); err != nil {
		t.Fatal(err)
	}

	srv2, hs2 := newTestServer(t, dir, 2)
	if n := srv2.RecoverJobs(); n != 2 {
		t.Fatalf("recovered %d jobs, want 2", n)
	}
	// The finished job replays to byte-identical completion.
	pollState(t, hs2.URL, id, "done")
	rstatus, rbody := get(t, hs2.URL+"/v1/jobs/"+id+"/result")
	if rstatus != http.StatusOK || !bytes.Equal(rbody, ref) {
		t.Fatalf("restarted result: %d, byte-identical=%v", rstatus, bytes.Equal(rbody, ref))
	}
	if got := metric(t, hs2.URL, "jobs_replay_mismatch_total"); got != 0 {
		t.Fatalf("replay mismatches: %d", got)
	}
	// The crashed queued job re-dispatched and finished with the same bytes.
	pollState(t, hs2.URL, "c0ffee", "done")
	if status, body := get(t, hs2.URL+"/v1/jobs/c0ffee/result"); status != http.StatusOK || !bytes.Equal(body, ref) {
		t.Fatalf("recovered queued job: %d, byte-identical=%v", status, bytes.Equal(body, ref))
	}
}

// TestJobCancel: DELETE on a running job cancels through the flight path;
// the job lands in canceled with the 499 status recorded, and the claim
// on a fresh solve is not needed — the evaluation stops burning.
func TestJobCancel(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir(), 2)
	grid := "topo=rrg:n=8,deg=5 traffic=none eval=testcancel runs=1 seed=1"
	_, id := submitJobReq(t, hs.URL, grid)
	<-cancelEntered // the solve is running and parked on its Cancel channel

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running job: %d", resp.StatusCode)
	}
	st := pollState(t, hs.URL, id, "canceled")
	if st.Error == "" {
		t.Fatal("canceled job carries no reason")
	}
	if status, _ := get(t, hs.URL+"/v1/jobs/"+id+"/result"); status != 499 {
		t.Fatalf("canceled job result status: %d, want 499", status)
	}
	if got := metric(t, hs.URL, "jobs_canceled_total"); got != 1 {
		t.Fatalf("jobs canceled metric: %d", got)
	}
}

// TestJobUnknownAndCorrupt: unknown ids 404 with the resubmit hint, and a
// corrupt record reads as unknown AND is swept — the job-record rung of
// the degradation ladder.
func TestJobUnknownAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	srv, hs := newTestServer(t, dir, 2)
	for _, id := range []string{"deadbeef", "not-HEX!", "0123zz"} {
		status, body := get(t, hs.URL+"/v1/jobs/"+id)
		if status != http.StatusNotFound {
			t.Fatalf("unknown job %q: %d %s", id, status, body)
		}
	}

	// A record that rotted on disk: unknown, and the damage is dropped.
	rec := store.JobRecord{ID: "abcd", Grid: testGridQuick, State: store.JobDone, Status: 200, Total: 1, Done: 1}
	if err := srv.cfg.Store.SaveJob(rec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "jobs", "abcd")
	if err := os.WriteFile(path, []byte("bit rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if status, _ := get(t, hs.URL+"/v1/jobs/abcd"); status != http.StatusNotFound {
		t.Fatalf("corrupt record answered %d, want 404", status)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt record not swept")
	}
	if got := metric(t, hs.URL, "jobs_unknown_total"); got != 4 {
		t.Fatalf("unknown-job metric: %d, want 4", got)
	}
}

// TestJobTableBound: MaxQueuedJobs rejects further submissions with 429 —
// the async path gets backpressure too, just at a much higher ceiling.
func TestJobTableBound(t *testing.T) {
	cache := scenario.NewCache()
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true}
	srv := New(Config{Engine: eng, Cache: cache, MaxJobs: 2, MaxQueuedJobs: 1})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	grid := "topo=rrg:n=8,deg=6 traffic=none eval=testcancel runs=1 seed=1"
	status, id := submitJobReq(t, hs.URL, grid)
	if status != http.StatusAccepted {
		t.Fatalf("first submit: %d", status)
	}
	<-cancelEntered
	if status, _ := submitJobReq(t, hs.URL, testGridQuick); status != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit: %d, want 429", status)
	}
	if got := metric(t, hs.URL, "jobs_rejected_total"); got != 1 {
		t.Fatalf("jobs rejected metric: %d", got)
	}
	// Malformed grids fail the submission, not the job.
	if status, _ := submitJobReq(t, hs.URL, "topo=nonsense"); status != http.StatusBadRequest {
		t.Fatalf("bad grid submit: %d, want 400", status)
	}
	// Unwedge: cancel the parked job.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	pollState(t, hs.URL, id, "canceled")
}
