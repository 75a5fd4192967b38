package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// Job records are the durable half of the service's async job API
// (POST /v1/jobs): one small entry per submitted grid, holding the job's
// lifecycle state, its progress counters, and — once the evaluation
// completes — the content address of the canonical response bytes. They
// ride the same machinery as result entries: a versioned, CRC-checksummed
// binary codec (magic TBRJ, a sibling of codec.go's TBRS), atomic
// temp-file-plus-rename publication, and absolute corruption tolerance.
//
// The degradation ladder for job records is deliberately one rung
// shorter than for results: a result entry that is lost re-solves, a job
// record that is lost or corrupt reads as "unknown job" and the client
// resubmits the grid — never a wedge, never a wrong answer. Nothing in a
// job record is needed to *compute* anything; it only names work, so
// dropping a damaged record costs one resubmission.
//
// JobCodecVersion follows the same rule as CodecVersion: bump it whenever
// the record encoding or the meaning of any field changes. Old-version
// records then read as unknown jobs and are swept, never reinterpreted.

// JobState is a job's lifecycle position. The zero value is JobQueued.
type JobState uint8

const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
	JobCanceled
)

// Terminal reports whether the state is final — no dispatcher will move
// the job again (a done job may still be re-run to replay its bytes after
// a restart, but its recorded state stays done).
func (st JobState) Terminal() bool {
	return st == JobDone || st == JobFailed || st == JobCanceled
}

// String names the state for status responses and logs.
func (st JobState) String() string {
	switch st {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	}
	return fmt.Sprintf("jobstate(%d)", uint8(st))
}

// JobRecord is one persisted async job.
type JobRecord struct {
	// ID is the job's identifier: 1-64 lowercase hex characters, assigned
	// at submission.
	ID string
	// Grid is the normalized grid line the job evaluates.
	Grid string
	// State is the lifecycle position last persisted.
	State JobState
	// Status is the HTTP status the job's result replays (200 for done;
	// the failure status for failed/canceled jobs).
	Status uint16
	// Done and Total are the progress counters: grid points completed and
	// the point count.
	Done, Total uint32
	// ResultAddr, for done jobs, is the content address (hex SHA-256) of
	// the canonical EvalResponse bytes — the byte-identity witness a
	// post-restart replay is verified against.
	ResultAddr string
	// Error carries the failure reason for failed/canceled jobs.
	Error string
	// Created and Updated are unix-nano timestamps.
	Created, Updated int64
}

// JobCodecVersion versions the job-record encoding. Bump it whenever the
// layout or the meaning of any field changes — stale-version records then
// read as unknown jobs (resubmit), never as misinterpreted bytes.
const JobCodecVersion uint16 = 1

var jobMagic = [4]byte{'T', 'B', 'R', 'J'}

// jobHeaderSize: magic(4) + version(2) + state(1) + reserved(1) +
// status(2) + reserved(2) + done(4) + total(4) + created(8) + updated(8).
const jobHeaderSize = 36

// EncodeJob serializes a job record into the versioned TBRJ format:
// fixed header, four length-prefixed strings (ID, Grid, ResultAddr,
// Error), CRC-32 trailer over everything before it.
func EncodeJob(rec JobRecord) []byte {
	strs := []string{rec.ID, rec.Grid, rec.ResultAddr, rec.Error}
	size := jobHeaderSize
	for _, s := range strs {
		size += 4 + len(s)
	}
	buf := make([]byte, size+trailerSize)
	copy(buf[0:4], jobMagic[:])
	binary.LittleEndian.PutUint16(buf[4:6], JobCodecVersion)
	buf[6] = byte(rec.State)
	binary.LittleEndian.PutUint16(buf[8:10], rec.Status)
	binary.LittleEndian.PutUint32(buf[12:16], rec.Done)
	binary.LittleEndian.PutUint32(buf[16:20], rec.Total)
	binary.LittleEndian.PutUint64(buf[20:28], uint64(rec.Created))
	binary.LittleEndian.PutUint64(buf[28:36], uint64(rec.Updated))
	off := jobHeaderSize
	for _, s := range strs {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(s)))
		copy(buf[off+4:], s)
		off += 4 + len(s)
	}
	sum := crc32.ChecksumIEEE(buf[:size])
	binary.LittleEndian.PutUint32(buf[size:], sum)
	return buf
}

// DecodeJob parses a job record, ok=false on any corruption, truncation,
// or codec-version mismatch — the "unknown job, resubmit" rung of the
// degradation ladder. A decoded record is exactly what some EncodeJob
// produced; garbage never parses.
func DecodeJob(buf []byte) (JobRecord, bool) {
	if len(buf) < jobHeaderSize+trailerSize {
		return JobRecord{}, false
	}
	if [4]byte(buf[0:4]) != jobMagic {
		return JobRecord{}, false
	}
	if binary.LittleEndian.Uint16(buf[4:6]) != JobCodecVersion {
		return JobRecord{}, false
	}
	body := buf[:len(buf)-trailerSize]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[len(body):]) {
		return JobRecord{}, false
	}
	// EncodeJob writes zeros into the reserved bytes; anything else is a
	// record no EncodeJob produced.
	if buf[7] != 0 || buf[10] != 0 || buf[11] != 0 {
		return JobRecord{}, false
	}
	rec := JobRecord{
		State:   JobState(buf[6]),
		Status:  binary.LittleEndian.Uint16(buf[8:10]),
		Done:    binary.LittleEndian.Uint32(buf[12:16]),
		Total:   binary.LittleEndian.Uint32(buf[16:20]),
		Created: int64(binary.LittleEndian.Uint64(buf[20:28])),
		Updated: int64(binary.LittleEndian.Uint64(buf[28:36])),
	}
	if rec.State > JobCanceled {
		return JobRecord{}, false
	}
	off := jobHeaderSize
	fields := []*string{&rec.ID, &rec.Grid, &rec.ResultAddr, &rec.Error}
	for _, f := range fields {
		if off+4 > len(body) {
			return JobRecord{}, false
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		if n < 0 || off+4+n > len(body) {
			return JobRecord{}, false
		}
		*f = string(buf[off+4 : off+4+n])
		off += 4 + n
	}
	if off != len(body) {
		return JobRecord{}, false
	}
	return rec, true
}

// jobsDir is the per-store directory holding job records. Like claims,
// its files are invisible to the result-entry index (Open skips non-shard
// directories), and crashed-writer .tmp-* leftovers are swept by the
// orphan GC.
const jobsDir = "jobs"

func (s *Store) jobPath(id string) string {
	return filepath.Join(s.dir, jobsDir, id)
}

// validJobID bounds what a record may be filed under: 1-64 lowercase hex
// characters, so a job id can never escape the jobs directory or collide
// with temp-file names.
func validJobID(id string) bool {
	return len(id) > 0 && len(id) <= 64 && isHex(id)
}

// SaveJob publishes a job record, atomically (temp file + rename), under
// its ID. Concurrent writers racing on one job leave a complete record —
// last writer wins, the same rule result entries live by.
func (s *Store) SaveJob(rec JobRecord) error {
	if !validJobID(rec.ID) {
		return fmt.Errorf("store: malformed job id %q", rec.ID)
	}
	dir := filepath.Join(s.dir, jobsDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(EncodeJob(rec)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.jobPath(rec.ID)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// LoadJob reads the record persisted under id. A missing, corrupt,
// truncated, stale-codec-version, or misfiled record reads as ok=false —
// "unknown job, resubmit" — and a damaged file is dropped so it cannot
// shadow a future job.
func (s *Store) LoadJob(id string) (JobRecord, bool) {
	if !validJobID(id) {
		return JobRecord{}, false
	}
	buf, err := os.ReadFile(s.jobPath(id))
	if err != nil {
		return JobRecord{}, false
	}
	rec, ok := DecodeJob(buf)
	if !ok || rec.ID != id {
		os.Remove(s.jobPath(id))
		return JobRecord{}, false
	}
	return rec, true
}

// DeleteJob removes the record persisted under id, if any.
func (s *Store) DeleteJob(id string) {
	if validJobID(id) {
		os.Remove(s.jobPath(id))
	}
}

// Jobs lists the ids of every persisted job record — the recovery scan a
// restarted service runs to re-adopt unfinished jobs. Temp files and
// foreign junk are skipped; damaged records are surfaced here and weeded
// by the LoadJob that follows.
func (s *Store) Jobs() []string {
	entries, err := os.ReadDir(filepath.Join(s.dir, jobsDir))
	if err != nil {
		return nil
	}
	var ids []string
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && !strings.HasPrefix(name, ".") && validJobID(name) {
			ids = append(ids, name)
		}
	}
	return ids
}
