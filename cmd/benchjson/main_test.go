package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchsuite"
)

// TestSnapshotNamesResolve: suite names are unique and every snapshot name
// is exactly one suite entry, so renaming a gated benchmark fails here and
// not only at the CI gate.
func TestSnapshotNamesResolve(t *testing.T) {
	count := map[string]int{}
	for _, e := range benchsuite.Suite {
		count[e.Name]++
	}
	for name, n := range count {
		if n > 1 {
			t.Errorf("suite entry %s defined %d times", name, n)
		}
	}
	for _, name := range snapshotNames {
		if count[name] != 1 {
			t.Errorf("snapshot name %s matches %d suite entries, want 1", name, count[name])
		}
	}
}

func TestCompare(t *testing.T) {
	snap := func(procs int, entries ...Entry) *Snapshot {
		return &Snapshot{GOMAXPROCS: procs, Entries: entries}
	}
	e := func(name string, ns, allocs int64) Entry {
		return Entry{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
	}
	for _, c := range []struct {
		name       string
		base, run  *Snapshot
		gates      string
		wantErr    string // "" = must pass
		wantErrAlt string // a second substring the error must carry
	}{{
		name:  "gate name containing = splits at its last =",
		base:  snap(1, e("SolverScale/n=80", 100, 0)),
		run:   snap(1, e("SolverScale/n=80", 120, 0)),
		gates: "SolverScale/n=80=25",
	}, {
		name:    "ns per op past the limit fails",
		base:    snap(1, e("SolverScale/n=80", 100, 0)),
		run:     snap(1, e("SolverScale/n=80", 130, 0)),
		gates:   "SolverScale/n=80=25",
		wantErr: "SolverScale/n=80 regressed 30.0%",
	}, {
		name:    "allocs per op past the limit fail when the baseline recorded allocations",
		base:    snap(1, e("ServeEvalWarm", 100, 8)),
		run:     snap(1, e("ServeEvalWarm", 100, 13)),
		gates:   "ServeEvalWarm=50",
		wantErr: "ServeEvalWarm allocs regressed",
	}, {
		name:  "allocs per op are not gated when the baseline recorded none",
		base:  snap(1, e("ServeLoad/warm/p50", 100, 0)),
		run:   snap(1, e("ServeLoad/warm/p50", 100, 50)),
		gates: "ServeLoad/warm/p50=150",
	}, {
		name:    "gated name missing from the run fails",
		base:    snap(1, e("SolverScale/n=80", 100, 0), e("ServeEvalWarm", 100, 8)),
		run:     snap(1, e("SolverScale/n=80", 100, 0)),
		gates:   "ServeEvalWarm=50",
		wantErr: "gated benchmark ServeEvalWarm missing from this run",
	}, {
		name:    "gated name missing from the baseline fails",
		base:    snap(1, e("SolverScale/n=80", 100, 0)),
		run:     snap(1, e("SolverScale/n=80", 100, 0), e("ServeEvalWarm", 100, 8)),
		gates:   "ServeEvalWarm=50",
		wantErr: "gated benchmark ServeEvalWarm missing from baseline",
	}, {
		name:       "GOMAXPROCS mismatch fails without comparing",
		base:       snap(1, e("SolverScale/n=80", 100, 0)),
		run:        snap(2, e("SolverScale/n=80", 100, 0)),
		gates:      "SolverScale/n=80=25",
		wantErr:    "GOMAXPROCS=1",
		wantErrAlt: "GOMAXPROCS=2",
	}} {
		t.Run(c.name, func(t *testing.T) {
			err := compare(c.base, c.run, c.gates)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("compare: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("compare passed, want an error containing %q", c.wantErr)
			}
			for _, want := range []string{c.wantErr, c.wantErrAlt} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("compare error %q does not contain %q", err, want)
				}
			}
		})
	}
}

func TestCheckWritable(t *testing.T) {
	dir := t.TempDir()
	if err := checkWritable(dir); err != nil {
		t.Fatalf("writable dir rejected: %v", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("probe left %d entries behind", len(ents))
	}
	file := filepath.Join(dir, "f")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{file, filepath.Join(dir, "missing")} {
		if err := checkWritable(bad); err == nil {
			t.Errorf("checkWritable(%s) passed", bad)
		}
	}
}
