package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/store"
)

// Async jobs are the service's answer to grids that outgrow a connection:
// POST /v1/jobs answers 202 with a job id immediately, the evaluation runs
// detached from any socket, and clients poll GET /v1/jobs/<id> until the
// result is ready. Jobs reuse the whole synchronous machinery — the flight
// table (a job and a /v1/eval request for the same grid share one solve),
// the job-slot queue (jobs wait for a slot instead of 429ing; they already
// answered, so waiting is cheap), and the tiered cache.
//
// Durability rides the store's job records (store.JobRecord): the record
// is persisted before the 202 leaves, progress updates are throttled
// through it, and completion stores the content address of the canonical
// response bytes. After a restart, RecoverJobs re-adopts every record:
// unfinished jobs re-dispatch (their solves resume against the warm
// store), finished ones replay lazily — the first poll re-runs the grid
// through the cache, which is byte-identical by the durability invariant,
// and the replayed bytes are verified against the recorded address.
//
// Job records obey a one-rung degradation ladder: lost or corrupt reads
// as "unknown job, resubmit" (404), never a wedge and never wrong bytes.

// job is one async evaluation: the durable record plus the live parts a
// record cannot hold — the cancel func and the resident result bytes.
type job struct {
	id   string
	grid string

	ctx    context.Context
	cancel context.CancelFunc

	mu  sync.Mutex
	rec store.JobRecord
	// body/status are the result bytes once the evaluation (or a
	// post-restart replay) finished in this process. A done record with no
	// resident body replays on first poll.
	body   []byte
	status int
	// replay marks a re-run of an already-done job after a restart; its
	// completion verifies bytes against rec.ResultAddr instead of
	// recounting the job as done.
	replay bool
	// lastPersist throttles progress persistence (unix nanos).
	lastPersist int64
}

// newJobID draws a fresh 128-bit hex job id.
func newJobID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; ids just need
		// uniqueness, so fall back to the clock.
		return fmt.Sprintf("%032x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

func (s *Server) jobCount() int {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return len(s.jobTab)
}

// persistJob writes the record through to the store, best-effort: a
// replica without a store serves jobs memory-only (no restart survival),
// and a failed write degrades the same way — the job still runs, only its
// record may read as unknown later.
func (s *Server) persistJob(rec store.JobRecord) {
	if s.cfg.Store != nil {
		s.cfg.Store.SaveJob(rec)
	}
}

// jobStatusPayload is the GET /v1/jobs/<id> body (and the 202 body of a
// DELETE on a running job).
type jobStatusPayload struct {
	Job   string `json:"job"`
	Grid  string `json:"grid"`
	State string `json:"state"`
	Done  uint32 `json:"done"`
	Total uint32 `json:"total"`
	// Result is the poll target for the finished bytes, set once the
	// result is fetchable.
	Result string `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// statusPayload snapshots the job for a poll response. A done record
// whose bytes are not resident (finished before a restart) reports
// "running" while the replay re-materializes them: "done" always means
// the result is fetchable right now.
func (j *job) statusPayload() jobStatusPayload {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := jobStatusPayload{
		Job:   j.id,
		Grid:  j.grid,
		State: j.rec.State.String(),
		Done:  j.rec.Done,
		Total: j.rec.Total,
		Error: j.rec.Error,
	}
	if j.rec.State == store.JobDone && j.body == nil {
		p.State = store.JobRunning.String()
	}
	if p.State == store.JobDone.String() || j.rec.State == store.JobFailed || j.rec.State == store.JobCanceled {
		p.Result = "/v1/jobs/" + j.id + "/result"
	}
	return p
}

func writeJobStatus(w http.ResponseWriter, status int, j *job) {
	body, err := json.MarshalIndent(j.statusPayload(), "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBytes(w, status, append(body, '\n'))
}

// handleSubmitJob accepts the same body as /v1/eval and answers 202 with
// the job id before any evaluation work starts. The queued record is
// persisted synchronously first, so a crash right after the 202 still
// leaves a recoverable job.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req EvalRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if strings.TrimSpace(req.Grid) == "" {
		writeError(w, http.StatusBadRequest, errors.New("request needs a grid line"))
		return
	}
	line := strings.Join(strings.Fields(req.Grid), " ")
	// Parse up front: a malformed grid fails the submission, not the job.
	grid, err := scenario.ParseGrid(line)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	gps, err := grid.Points()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.jobCount() >= s.cfg.MaxQueuedJobs {
		s.jobsRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("job table full (%d jobs resident)", s.cfg.MaxQueuedJobs))
		return
	}

	now := time.Now().UnixNano()
	j := &job{id: newJobID(), grid: line}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.rec = store.JobRecord{
		ID:      j.id,
		Grid:    line,
		State:   store.JobQueued,
		Total:   uint32(len(gps)),
		Created: now,
		Updated: now,
	}
	s.persistJob(j.rec)
	s.jobsMu.Lock()
	s.jobTab[j.id] = j
	s.jobsMu.Unlock()
	s.jobsSubmitted.Add(1)
	go s.runJob(j)

	body, _ := json.MarshalIndent(struct {
		Job  string `json:"job"`
		Poll string `json:"poll"`
	}{j.id, "/v1/jobs/" + j.id}, "", "  ")
	writeBytes(w, http.StatusAccepted, append(body, '\n'))
}

// runJob drives one job through the shared evaluation path. It blocks for
// a job slot when the queue is full (the 202 already went out) and feeds
// per-point progress back into the record.
func (s *Server) runJob(j *job) {
	progress := func(done, total int) { s.jobProgress(j, done, total) }
	sc := evalScratchPool.Get().(*evalScratch)
	defer evalScratchPool.Put(sc)
	status, body, _, err := s.evalShared(j.ctx, j.grid, true, s.cfg.JobTimeout, progress, sc)
	if err != nil {
		// Only the job's own ctx can fail a blocking evalShared: the job
		// was canceled while still waiting for a slot.
		status, body = 499, errorBody(errors.New("job canceled before evaluation started"))
	}
	s.finishJob(j, status, body)
}

// jobProgress is the engine's per-point callback: it flips a queued job
// to running, advances the counter monotonically (attached flights and
// retries may re-announce earlier totals), and persists the record at
// most every 250ms so a million-point grid does not turn progress into a
// write storm.
func (s *Server) jobProgress(j *job, done, total int) {
	now := time.Now().UnixNano()
	j.mu.Lock()
	if j.rec.State == store.JobQueued {
		j.rec.State = store.JobRunning
	}
	if j.rec.State != store.JobRunning {
		j.mu.Unlock()
		return
	}
	if uint32(done) > j.rec.Done {
		j.rec.Done = uint32(done)
	}
	if total > 0 {
		j.rec.Total = uint32(total)
	}
	j.rec.Updated = now
	persist := done == 0 || done == total || now-j.lastPersist > int64(250*time.Millisecond)
	if persist {
		j.lastPersist = now
	}
	rec := j.rec
	j.mu.Unlock()
	if persist {
		s.persistJob(rec)
	}
}

// finishJob records the evaluation's outcome. 200 → done, with the
// canonical bytes' content address persisted as the byte-identity witness
// for post-restart replays; 499 → canceled; anything else → failed with
// the status and error retained for replay. A replay's completion only
// re-materializes bytes (and verifies them against the recorded address)
// — it never recounts or re-states the job.
func (s *Server) finishJob(j *job, status int, body []byte) {
	now := time.Now().UnixNano()
	j.mu.Lock()
	if j.replay {
		j.replay = false
		if status == http.StatusOK {
			s.jobsReplayed.Add(1)
			addr := store.Addr(string(body))
			if addr != j.rec.ResultAddr {
				// The warm store no longer reproduces the recorded bytes
				// (pruned entries re-solved under a changed build, say).
				// Serve the fresh bytes — they are what this server computes
				// — but count the broken witness.
				s.jobsReplayMismatch.Add(1)
				j.rec.ResultAddr = addr
				j.rec.Updated = now
			}
			j.status, j.body = status, body
		}
		// A failed replay (canceled, timeout) leaves the record done and
		// the bytes absent; the next poll retries.
		rec := j.rec
		j.mu.Unlock()
		s.persistJob(rec)
		return
	}
	j.status, j.body = status, body
	j.rec.Updated = now
	switch {
	case status == http.StatusOK:
		j.rec.State = store.JobDone
		j.rec.Status = http.StatusOK
		j.rec.Done = j.rec.Total
		j.rec.ResultAddr = store.Addr(string(body))
		s.jobsDone.Add(1)
	case status == 499:
		j.rec.State = store.JobCanceled
		j.rec.Status = 499
		j.rec.Error = errorMessage(body)
		s.jobsCanceled.Add(1)
	default:
		j.rec.State = store.JobFailed
		j.rec.Status = uint16(status)
		j.rec.Error = errorMessage(body)
		s.jobsFailed.Add(1)
	}
	rec := j.rec
	j.mu.Unlock()
	s.persistJob(rec)
}

// errorMessage extracts the message from an errorBody payload, falling
// back to the raw bytes.
func errorMessage(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

// lookupJob finds a job by id: the live table first, then the store's
// records (a record persisted by a previous process is adopted on first
// touch). nil means unknown — lost, expired, corrupt, or never submitted
// — and the client should resubmit.
func (s *Server) lookupJob(id string) *job {
	s.jobsMu.Lock()
	if j, ok := s.jobTab[id]; ok {
		s.jobsMu.Unlock()
		return j
	}
	s.jobsMu.Unlock()
	if s.cfg.Store == nil {
		return nil
	}
	rec, ok := s.cfg.Store.LoadJob(id)
	if !ok {
		return nil
	}
	return s.adoptJob(rec)
}

// adoptJob registers a persisted record as a live job. Non-terminal jobs
// (queued/running when the previous process died) re-dispatch
// immediately; terminal ones sit passive until polled. The live table is
// re-checked under the lock so concurrent adopters converge on one job.
func (s *Server) adoptJob(rec store.JobRecord) *job {
	s.jobsMu.Lock()
	if j, ok := s.jobTab[rec.ID]; ok {
		s.jobsMu.Unlock()
		return j
	}
	j := &job{id: rec.ID, grid: rec.Grid, rec: rec}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	s.jobTab[rec.ID] = j
	s.jobsMu.Unlock()
	s.jobsRecovered.Add(1)
	if !rec.State.Terminal() {
		j.mu.Lock()
		j.rec.State = store.JobQueued
		j.mu.Unlock()
		go s.runJob(j)
	}
	return j
}

// RecoverJobs scans the store's job records, discards terminal jobs older
// than JobRetain, and re-adopts the rest: unfinished jobs resume against
// the warm store, finished ones become replayable. Call once at startup,
// before serving.
func (s *Server) RecoverJobs() int {
	if s.cfg.Store == nil {
		return 0
	}
	n := 0
	for _, id := range s.cfg.Store.Jobs() {
		rec, ok := s.cfg.Store.LoadJob(id)
		if !ok {
			continue // damaged record, already dropped by LoadJob
		}
		if rec.State.Terminal() && time.Since(time.Unix(0, rec.Updated)) > s.cfg.JobRetain {
			s.cfg.Store.DeleteJob(id)
			continue
		}
		s.adoptJob(rec)
		n++
	}
	return n
}

// ensureResult re-materializes the bytes of a done job that finished in a
// previous process (or whose resident bytes were dropped). It tries the
// response-byte cache first — if the canonical bytes for the job's grid
// are still resident AND their content address matches the recorded
// witness, they are adopted synchronously, no replay, no 202 round-trip.
// Otherwise it kicks off the usual async replay through the evaluation
// path. Idempotent: one replay runs at a time.
func (s *Server) ensureResult(j *job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec.State != store.JobDone || j.body != nil || j.replay {
		return
	}
	rk, _ := respKeyFor(nil, respKeyPrefix, j.grid)
	if body := s.resp.get(rk); body != nil && store.Addr(string(body)) == j.rec.ResultAddr {
		j.status, j.body = http.StatusOK, body
		return
	}
	j.replay = true
	go s.runJob(j)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.jobsUnknown.Add(1)
		writeError(w, http.StatusNotFound,
			errors.New("unknown job (lost or expired record): resubmit the grid"))
		return
	}
	s.ensureResult(j)
	writeJobStatus(w, http.StatusOK, j)
}

// handleJobResult serves the finished bytes: 200 with the canonical
// EvalResponse for a done job (byte-identical to the synchronous /v1/eval
// response for the same grid), the recorded failure status and error for
// a failed or canceled job, and 202 with the status payload while the
// evaluation (or a post-restart replay) is still running.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.jobsUnknown.Add(1)
		writeError(w, http.StatusNotFound,
			errors.New("unknown job (lost or expired record): resubmit the grid"))
		return
	}
	// Before reading state: a byte-cache adoption inside ensureResult lands
	// synchronously, so a done-but-not-resident job whose bytes are still
	// cached answers 200 on this very poll instead of a 202 round-trip.
	s.ensureResult(j)
	j.mu.Lock()
	state, status, body, errMsg := j.rec.State, int(j.rec.Status), j.body, j.rec.Error
	j.mu.Unlock()
	switch {
	case state == store.JobDone && body != nil:
		writeBytes(w, http.StatusOK, body)
	case state == store.JobFailed || state == store.JobCanceled:
		if status == 0 {
			status = http.StatusInternalServerError
		}
		writeError(w, status, errors.New(errMsg))
	default:
		writeJobStatus(w, http.StatusAccepted, j)
	}
}

// handleCancelJob cancels a running or queued job through the flight
// cancellation path (202: cancellation lands at the solver's next phase
// boundary, or immediately if the job still waits for a slot) and
// discards a terminal job's record entirely (204).
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookupJob(id)
	if j == nil {
		s.jobsUnknown.Add(1)
		writeError(w, http.StatusNotFound,
			errors.New("unknown job (lost or expired record): resubmit the grid"))
		return
	}
	j.mu.Lock()
	terminal := j.rec.State.Terminal()
	j.mu.Unlock()
	if terminal {
		s.jobsMu.Lock()
		delete(s.jobTab, id)
		s.jobsMu.Unlock()
		if s.cfg.Store != nil {
			s.cfg.Store.DeleteJob(id)
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	j.cancel()
	writeJobStatus(w, http.StatusAccepted, j)
}
