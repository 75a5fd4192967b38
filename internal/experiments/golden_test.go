package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
	"repro/internal/store"
)

// Golden regression tests pin the quick-mode output of representative
// figure runners byte-for-byte. Solver or experiment changes that move any
// result — even within the ε class — fail loudly; when the drift is
// intended (a solver improvement changed trajectories), regenerate with
//
//	go test ./internal/experiments -run TestGolden -update
//
// and review the diff like any other code change. The runners are
// deterministic by construction (fixed seeds, parallel == serial), so the
// files are stable across machines and -race.
var update = flag.Bool("update", false, "rewrite the golden files with current outputs")

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s — if the change is intended, regenerate with -update and review the diff.\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// goldenOpts are the pinned quick-mode settings (benchmark-grade grids).
func goldenOpts() Options { return Options{Quick: true, Runs: 2, Seed: 1} }

func goldenFigure(t *testing.T, id string) {
	t.Helper()
	if testing.Short() {
		t.Skip("flow-solver experiment; skipped in -short")
	}
	fig, err := Registry(id)(goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fig.TSV(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "fig"+id+"_quick.tsv", buf.Bytes())
}

func TestGoldenFig2a(t *testing.T) { goldenFigure(t, "2a") }
func TestGoldenFig9a(t *testing.T) { goldenFigure(t, "9a") }

// TestGoldenFig2aWithStore pins the store's can-never-change-results
// contract against the golden files: the same figure run with the solve
// cache tiered onto a disk store — cold, then again from a fresh handle
// answering out of that store — must match the committed golden bytes
// exactly. (No -update here: the plain TestGoldenFig2a owns the file;
// a store-enabled run that drifts from it is a store bug.)
func TestGoldenFig2aWithStore(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver experiment; skipped in -short")
	}
	dir := t.TempDir()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "fig2a_quick.tsv"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	for _, pass := range []string{"cold", "warm-restart"} {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache := scenario.NewCache()
		cache.SetBackend(st)
		opts := goldenOpts()
		opts.Cache = cache
		fig, err := Registry("2a")(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fig.TSV(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s store-backed output differs from golden bytes", pass)
		}
		if pass == "warm-restart" {
			if cs := cache.Stats(); cs.StoreHits == 0 {
				t.Fatalf("warm restart did not answer from the store: %+v", cs)
			}
		}
	}
}

func TestGoldenTheorem2Check(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-solver experiment; skipped in -short")
	}
	pts, err := Theorem2Check(goldenOpts(), 12, 6, []int{4, 8, 16, 32, 48})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# Theorem2Check n=12 degree=6 quick runs=2 seed=1")
	fmt.Fprintln(&buf, "# cross\tthroughput\tsparsest_cut")
	for _, p := range pts {
		fmt.Fprintf(&buf, "%d\t%g\t%g\n", p.CrossLinks, p.Throughput, p.SparsestCut)
	}
	goldenCompare(t, "theorem2_quick.tsv", buf.Bytes())
}
