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
// The job's record (store.JobRecord) is its only truth: queued → running
// → done, failed or canceled, and then expired or deleted. The record is
// persisted before the 202 leaves, progress updates are throttled through
// it, and a done record holds the canonical response bytes, so the job
// routes' GETs only read. After a restart, RecoverJobs re-adopts every
// record: unfinished jobs re-dispatch (their solves resume against the
// warm store), finished ones answer from their records. Terminal records
// older than JobRetain are dropped at startup and before each submission.
//
// Job records obey a one-rung degradation ladder: lost or corrupt reads
// as "unknown job, resubmit" (404), never a wedge and never wrong bytes.

// job is one async evaluation: the record plus the cancel func a record
// cannot hold.
type job struct {
	id   string
	grid string

	ctx    context.Context
	cancel context.CancelFunc

	mu  sync.Mutex
	rec store.JobRecord
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
	// Result is the poll target for the finished bytes (or the failure),
	// set once the job is terminal.
	Result string `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// statusPayload snapshots the job's record for a poll response.
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
	if j.rec.State.Terminal() {
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
	sc := evalScratchPool.Get().(*evalScratch)
	defer evalScratchPool.Put(sc)
	line, err := readGrid(r, sc)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
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
	now := time.Now()
	j := &job{id: newJobID(), grid: line}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.rec = store.JobRecord{
		ID:      j.id,
		Grid:    line,
		State:   store.JobQueued,
		Total:   uint32(len(gps)),
		Created: now.UnixNano(),
		Updated: now.UnixNano(),
	}
	if !s.admitJob(j, now) {
		j.cancel()
		s.jobsRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("job table full (%d jobs resident)", s.cfg.MaxQueuedJobs))
		return
	}
	s.persistJob(j.rec)
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

// finishJob records the evaluation's outcome: 200 → done, with the
// canonical bytes in the record; 499 → canceled; anything else → failed,
// with the status and error kept for the result route. The record is
// saved under the job's lock, so a DELETE that sees the job terminal
// runs after the save and its record stays deleted.
func (s *Server) finishJob(j *job, status int, body []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rec.Updated = time.Now().UnixNano()
	j.rec.Status = uint16(status)
	switch status {
	case http.StatusOK:
		j.rec.State = store.JobDone
		j.rec.Done = j.rec.Total
		j.rec.Result = body
		s.jobsDone.Add(1)
	case 499:
		j.rec.State = store.JobCanceled
		j.rec.Error = errorMessage(body)
		s.jobsCanceled.Add(1)
	default:
		j.rec.State = store.JobFailed
		j.rec.Error = errorMessage(body)
		s.jobsFailed.Add(1)
	}
	s.persistJob(j.rec)
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
// immediately; terminal ones answer from their records. The live table
// is re-checked under the lock so concurrent adopters converge on one
// job.
func (s *Server) adoptJob(rec store.JobRecord) *job {
	resume := !rec.State.Terminal()
	if resume {
		rec.State = store.JobQueued
	}
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
	if resume {
		go s.runJob(j)
	}
	return j
}

// expired reports whether a job's record has outlived JobRetain: only a
// terminal job expires, JobRetain after its last update.
func (s *Server) expired(rec store.JobRecord, now time.Time) bool {
	return rec.State.Terminal() && now.Sub(time.Unix(0, rec.Updated)) > s.cfg.JobRetain
}

// admitJob adds a new job to the live table unless MaxQueuedJobs jobs
// are already resident. Expired jobs leave the table, and their records
// the store, first, so finished jobs nobody deletes cannot fill it. The
// sweep, the bound check and the insertion hold one lock, so concurrent
// submissions cannot overshoot the bound.
func (s *Server) admitJob(nj *job, now time.Time) bool {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	for id, j := range s.jobTab {
		j.mu.Lock()
		old := s.expired(j.rec, now)
		j.mu.Unlock()
		if old {
			s.deleteRecord(id)
			delete(s.jobTab, id)
		}
	}
	if len(s.jobTab) >= s.cfg.MaxQueuedJobs {
		return false
	}
	s.jobTab[nj.id] = nj
	return true
}

// deleteRecord removes a job's record from the store, if there is one.
func (s *Server) deleteRecord(id string) {
	if s.cfg.Store != nil {
		s.cfg.Store.DeleteJob(id)
	}
}

// RecoverJobs scans the store's job records, discards expired ones, and
// re-adopts the rest: unfinished jobs resume against the warm store,
// finished ones answer from their records. Call once at startup, before
// serving.
func (s *Server) RecoverJobs() int {
	if s.cfg.Store == nil {
		return 0
	}
	n := 0
	now := time.Now()
	for _, id := range s.cfg.Store.Jobs() {
		rec, ok := s.cfg.Store.LoadJob(id)
		if !ok {
			continue // damaged record, already dropped by LoadJob
		}
		if s.expired(rec, now) {
			s.cfg.Store.DeleteJob(id)
			continue
		}
		s.adoptJob(rec)
		n++
	}
	return n
}

// jobFor finds the request's job, answering 404 itself when the job is
// unknown.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.jobsUnknown.Add(1)
		writeError(w, http.StatusNotFound,
			errors.New("unknown job (lost or expired record): resubmit the grid"))
	}
	return j
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJobStatus(w, http.StatusOK, j)
	}
}

// handleJobResult serves the finished bytes from the job's record: 200
// with the canonical EvalResponse for a done job (byte-identical to the
// synchronous /v1/eval response for the same grid), the recorded failure
// status and error for a failed or canceled job, and 202 with the status
// payload while the evaluation is still queued or running.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	rec := j.rec
	j.mu.Unlock()
	switch rec.State {
	case store.JobDone:
		writeBytes(w, http.StatusOK, rec.Result)
	case store.JobFailed, store.JobCanceled:
		status := int(rec.Status)
		if status == 0 {
			status = http.StatusInternalServerError
		}
		writeError(w, status, errors.New(rec.Error))
	default:
		writeJobStatus(w, http.StatusAccepted, j)
	}
}

// handleCancelJob cancels a running or queued job through the flight
// cancellation path (202: cancellation lands at the solver's next phase
// boundary, or immediately if the job still waits for a slot) and
// discards a terminal job's record entirely (204).
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	terminal := j.rec.State.Terminal()
	j.mu.Unlock()
	if terminal {
		// Record first: a poll that misses the table from here on also
		// misses the record, so it cannot adopt the job back.
		s.deleteRecord(j.id)
		s.jobsMu.Lock()
		delete(s.jobTab, j.id)
		s.jobsMu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	j.cancel()
	writeJobStatus(w, http.StatusAccepted, j)
}
