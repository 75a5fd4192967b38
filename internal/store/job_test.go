package store

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func sampleJob() JobRecord {
	return JobRecord{
		ID:         "00deadbeef00deadbeef00deadbeef00",
		Grid:       "topo=rrg:n=8,deg=3 traffic=permutation eval=aspl runs=1 seed=1",
		State:      JobDone,
		Status:     200,
		Done:       7,
		Total:      7,
		ResultAddr: Addr("some canonical bytes"),
		Error:      "",
		Created:    1700000000000000001,
		Updated:    1700000000000000002,
	}
}

func TestJobCodecRoundTrip(t *testing.T) {
	cases := []JobRecord{
		sampleJob(),
		{ID: "ab", State: JobQueued, Total: 3, Created: 1, Updated: 1},
		{ID: "ff", Grid: "g", State: JobFailed, Status: 500, Error: "solver exploded"},
		{ID: "0c", State: JobCanceled, Status: 499, Error: "all clients gone"},
	}
	for _, rec := range cases {
		got, ok := DecodeJob(EncodeJob(rec))
		if !ok {
			t.Fatalf("round trip rejected %+v", rec)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
	}
}

// TestJobCodecTamper: the absolute corruption-tolerance rule, applied to
// job records. Any byte-level damage — truncation, bit flips anywhere,
// magic/version/state abuse, trailing junk — must read as "no record",
// never as a different record and never as a panic.
func TestJobCodecTamper(t *testing.T) {
	orig := sampleJob()
	good := EncodeJob(orig)

	for n := 0; n < len(good); n++ {
		if _, ok := DecodeJob(good[:n]); ok {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	for i := 0; i < len(good); i++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			bad := append([]byte(nil), good...)
			bad[i] ^= flip
			if rec, ok := DecodeJob(bad); ok && !reflect.DeepEqual(rec, orig) {
				t.Fatalf("flip at byte %d decoded as a DIFFERENT record: %+v", i, rec)
			}
		}
	}
	if _, ok := DecodeJob(append(append([]byte(nil), good...), 0)); ok {
		t.Fatal("trailing junk accepted")
	}
	if _, ok := DecodeJob(nil); ok {
		t.Fatal("nil accepted")
	}
	// A record claiming an out-of-range state must not decode even with a
	// valid CRC.
	weird := sampleJob()
	weird.State = JobState(77)
	if _, ok := DecodeJob(EncodeJob(weird)); ok {
		t.Fatal("out-of-range state accepted")
	}
	// Nor may a record with nonzero reserved header bytes: EncodeJob never
	// writes one, so it would decode to a record that re-encodes to
	// different bytes.
	for _, i := range []int{7, 10, 11} {
		if _, ok := DecodeJob(reserveJob(good, i)); ok {
			t.Fatalf("nonzero reserved byte %d accepted", i)
		}
	}
}

// reserveJob returns a copy of an encoded job record with reserved header
// byte i set to 0x5a and the CRC trailer recomputed, so only the reserved
// byte can reject it.
func reserveJob(good []byte, i int) []byte {
	bad := append([]byte(nil), good...)
	bad[i] = 0x5a
	return withCRC(bad)
}

func TestJobSaveLoadDeleteList(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := sampleJob(), sampleJob()
	b.ID = "0123456789abcdef"
	b.State = JobRunning
	for _, rec := range []JobRecord{a, b} {
		if err := s.SaveJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := s.LoadJob(a.ID)
	if !ok || !reflect.DeepEqual(got, a) {
		t.Fatalf("load: %+v %v, want %+v", got, ok, a)
	}
	ids := s.Jobs()
	sort.Strings(ids)
	want := []string{a.ID, b.ID}
	sort.Strings(want)
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("jobs list: %v, want %v", ids, want)
	}
	// Overwrite is last-writer-wins.
	a2 := a
	a2.Done = 3
	if err := s.SaveJob(a2); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.LoadJob(a.ID); got.Done != 3 {
		t.Fatalf("overwrite lost: %+v", got)
	}
	s.DeleteJob(a.ID)
	if _, ok := s.LoadJob(a.ID); ok {
		t.Fatal("deleted job still loads")
	}
	if got := s.Jobs(); len(got) != 1 || got[0] != b.ID {
		t.Fatalf("jobs after delete: %v", got)
	}
	// Malformed ids never touch the filesystem.
	if err := s.SaveJob(JobRecord{ID: "../escape"}); err == nil {
		t.Fatal("path-escaping id accepted")
	}
	if _, ok := s.LoadJob("../escape"); ok {
		t.Fatal("path-escaping id loaded")
	}
	if _, ok := s.LoadJob("UPPER"); ok {
		t.Fatal("non-hex id loaded")
	}
}

// TestJobLoadDropsDamage: a corrupt or misfiled record reads as unknown
// AND is removed, so damage cannot shadow a future job under the same id.
func TestJobLoadDropsDamage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleJob()
	if err := s.SaveJob(rec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, jobsDir, rec.ID)
	if err := os.WriteFile(path, []byte("not a TBRJ record"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadJob(rec.ID); ok {
		t.Fatal("corrupt record loaded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt record not dropped")
	}

	// Misfiled: a valid record stored under someone else's id.
	other := sampleJob()
	other.ID = "aaaa"
	if err := s.SaveJob(other); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, jobsDir, "aaaa"), filepath.Join(dir, jobsDir, "bbbb")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadJob("bbbb"); ok {
		t.Fatal("misfiled record loaded under the wrong id")
	}
	if _, err := os.Stat(filepath.Join(dir, jobsDir, "bbbb")); !os.IsNotExist(err) {
		t.Fatal("misfiled record not dropped")
	}
	// Jobs() skips temp files and junk names; every valid record above was
	// dropped as damage, so the listing must come back empty.
	os.WriteFile(filepath.Join(dir, jobsDir, ".tmp-junk"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, jobsDir, "NOT-HEX"), []byte("x"), 0o644)
	if ids := s.Jobs(); len(ids) != 0 {
		t.Fatalf("jobs listing after damage sweep: %v, want empty", ids)
	}
}
