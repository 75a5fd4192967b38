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
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// pruneResults deletes every result shard of a store directory, as a
// prune to zero bytes would, and keeps the job records.
func pruneResults(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "jobs" {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestJobSurvivesRestart: a finished job's record outlives the process.
// A fresh server over the same store dir, with every result shard pruned
// and an empty byte cache, answers the job's FIRST result poll with 200
// and the original bytes — from the record, so nothing re-solved — and
// those bytes equal a synchronous eval of the grid. An unfinished
// (queued) record left by a crash re-dispatches to completion.
func TestJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, hs1 := newTestServer(t, dir, 2)
	_, id := submitJobReq(t, hs1.URL, testGridQuick)
	pollState(t, hs1.URL, id, "done")
	_, ref := get(t, hs1.URL+"/v1/jobs/"+id+"/result")
	hs1.Close()
	pruneResults(t, dir)

	// Simulate a crash mid-queue too: a second record that never ran.
	crashedGrid := strings.Replace(testGridQuick, "seed=1", "seed=2", 1)
	crashed := store.JobRecord{
		ID: "c0ffee", Grid: crashedGrid, State: store.JobQueued,
		Total: 1, Created: time.Now().UnixNano(), Updated: time.Now().UnixNano(),
	}
	if err := srv1.cfg.Store.SaveJob(crashed); err != nil {
		t.Fatal(err)
	}

	srv2, hs2 := newTestServer(t, dir, 2)
	if n := srv2.RecoverJobs(); n != 2 {
		t.Fatalf("recovered %d jobs, want 2", n)
	}
	rstatus, rbody := get(t, hs2.URL+"/v1/jobs/"+id+"/result")
	if rstatus != http.StatusOK || !bytes.Equal(rbody, ref) {
		t.Fatalf("first result poll after restart: %d, byte-identical=%v", rstatus, bytes.Equal(rbody, ref))
	}
	if st := pollState(t, hs2.URL, id, "done", "running", "queued"); st.State != "done" {
		t.Fatalf("finished job reports %q after restart", st.State)
	}
	if status, body := postEval(t, hs2.URL, testGridQuick); status != http.StatusOK || !bytes.Equal(body, ref) {
		t.Fatalf("sync eval after restart: %d, equals the job's bytes=%v", status, bytes.Equal(body, ref))
	}
	// The crashed queued job re-dispatched and finished with the bytes a
	// synchronous eval of its grid answers.
	pollState(t, hs2.URL, "c0ffee", "done")
	_, want := postEval(t, hs2.URL, crashedGrid)
	if status, body := get(t, hs2.URL+"/v1/jobs/c0ffee/result"); status != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("recovered queued job: %d, byte-identical=%v", status, bytes.Equal(body, want))
	}
}

// TestDeletedJobStaysDeleted: restart over a pruned store, poll a done
// job, DELETE it. The poll only reads the record (it starts no solve that
// could save the record again), so the job stays deleted: 404, and no
// record file is left under jobs/.
func TestDeletedJobStaysDeleted(t *testing.T) {
	dir := t.TempDir()
	_, hs1 := newTestServer(t, dir, 2)
	release := arm(t, &blockEntered, &blockRelease)
	grid := "topo=rrg:n=8,deg=3 traffic=none eval=testblock runs=1 seed=1"
	_, id := submitJobReq(t, hs1.URL, grid)
	<-blockEntered
	release()
	pollState(t, hs1.URL, id, "done")
	hs1.Close()
	pruneResults(t, dir)

	srv2, hs2 := newTestServer(t, dir, 2)
	// Re-arm: a solve of the grid now parks until released.
	release = arm(t, &blockEntered, &blockRelease)
	srv2.RecoverJobs()
	// The first poll reads the record: done.
	if st := pollState(t, hs2.URL, id, "done", "running", "queued"); st.State != "done" {
		t.Fatalf("finished job reports %q after restart", st.State)
	}
	req, _ := http.NewRequest(http.MethodDelete, hs2.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete done job: %d", resp.StatusCode)
	}
	// A solve the poll had started would finish now and could save the
	// record again.
	release()
	if status, body := get(t, hs2.URL+"/v1/jobs/"+id); status != http.StatusNotFound {
		t.Fatalf("deleted job answers %d %s", status, body)
	}
	if ids, _ := os.ReadDir(filepath.Join(dir, "jobs")); len(ids) != 0 {
		t.Fatalf("%d record files left under jobs/ after the delete", len(ids))
	}
	if n := len(blockEntered); n != 0 {
		t.Fatalf("%d solves ran after the restart; the job was done", n)
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
	rec := store.JobRecord{ID: "abcd", Grid: testGridQuick, State: store.JobDone, Status: 200, Total: 1, Done: 1, Result: []byte("{}\n")}
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

// TestJobBoundHoldsUnderConcurrentSubmits: concurrent submissions cannot
// overshoot MaxQueuedJobs, even while each accepted record is being
// persisted. Each round races 32 submissions at a table of one.
func TestJobBoundHoldsUnderConcurrentSubmits(t *testing.T) {
	for round := 0; round < 5; round++ {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cache := scenario.NewCache()
		cache.SetBackend(st)
		eng := &scenario.Engine{Cache: cache, SkipInfeasible: true}
		hs := httptest.NewServer(New(Config{Engine: eng, Cache: cache, Store: st, MaxJobs: 2, MaxQueuedJobs: 1}).Handler())
		var (
			mu       sync.Mutex
			accepted []string
			wg       sync.WaitGroup
		)
		start := make(chan struct{})
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				grid := strings.Replace(testGridQuick, "seed=1", fmt.Sprintf("seed=%d", i+1), 1)
				body, _ := json.Marshal(EvalRequest{Grid: grid})
				<-start
				resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var acc struct {
					Job string `json:"job"`
				}
				if resp.StatusCode == http.StatusAccepted && json.NewDecoder(resp.Body).Decode(&acc) == nil {
					mu.Lock()
					accepted = append(accepted, acc.Job)
					mu.Unlock()
				}
			}(i)
		}
		close(start)
		wg.Wait()
		for _, id := range accepted {
			pollState(t, hs.URL, id, "done") // nothing writes after the round
		}
		hs.Close()
		if len(accepted) != 1 {
			t.Fatalf("round %d: %d of 32 concurrent submissions accepted, want 1 (MaxQueuedJobs 1)", round, len(accepted))
		}
	}
}

// TestJobRetentionWhileServing: JobRetain holds while the daemon serves,
// not only at startup. With room for one job, a submission after the
// first job expired is accepted, and the expired job then answers 404
// with its record gone.
func TestJobRetentionWhileServing(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := scenario.NewCache()
	cache.SetBackend(st)
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true}
	srv := New(Config{Engine: eng, Cache: cache, Store: st, MaxJobs: 2, MaxQueuedJobs: 1, JobRetain: time.Millisecond})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	_, first := submitJobReq(t, hs.URL, testGridQuick)
	pollState(t, hs.URL, first, "done")
	time.Sleep(20 * time.Millisecond)
	if status, _ := submitJobReq(t, hs.URL, testGridQuick); status != http.StatusAccepted {
		t.Fatalf("submit after the first job expired: %d, want 202", status)
	}
	if status, body := get(t, hs.URL+"/v1/jobs/"+first); status != http.StatusNotFound {
		t.Fatalf("expired job answers %d %s", status, body)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", first)); !os.IsNotExist(err) {
		t.Fatalf("expired job's record still on disk: %v", err)
	}
}

// TestJobRetentionConcurrent: submissions from several goroutines sweep
// expired jobs while other jobs run, finish and are polled (run it with
// -race). Every submission is eventually accepted within the bound, and
// every job is polled to done or, once expired and swept, to 404.
func TestJobRetentionConcurrent(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := scenario.NewCache()
	cache.SetBackend(st)
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true}
	srv := New(Config{Engine: eng, Cache: cache, Store: st, MaxJobs: 2, MaxQueuedJobs: 2, JobRetain: time.Millisecond})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	const workers, perWorker = 4, 4
	deadline := time.Now().Add(20 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				grid := strings.Replace(testGridQuick, "seed=1", fmt.Sprintf("seed=%d", 1+w*perWorker+i), 1)
				body, _ := json.Marshal(EvalRequest{Grid: grid})
				var id string
				for id == "" && time.Now().Before(deadline) {
					resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					var acc struct {
						Job string `json:"job"`
					}
					if resp.StatusCode == http.StatusAccepted {
						json.NewDecoder(resp.Body).Decode(&acc)
						id = acc.Job
					} else if resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("submit: %d", resp.StatusCode)
					}
					resp.Body.Close()
					time.Sleep(time.Millisecond)
				}
				for state := ""; state != "done" && state != "gone"; {
					if time.Now().After(deadline) {
						t.Errorf("job %q not finished by the deadline (state %q)", id, state)
						return
					}
					resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
					if err != nil {
						t.Error(err)
						return
					}
					var js jobStatus
					json.NewDecoder(resp.Body).Decode(&js)
					resp.Body.Close()
					state = js.State
					if resp.StatusCode == http.StatusNotFound {
						state = "gone"
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := srv.jobsSubmitted.Load(); got != workers*perWorker {
		t.Fatalf("%d jobs accepted, want %d", got, workers*perWorker)
	}
}
