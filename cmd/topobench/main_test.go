package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/service"
)

func TestWriteOutWritesWholeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig.tsv")
	if err := os.WriteFile(path, bytes.Repeat([]byte("stale\n"), 50000), 0o644); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("0.5\t0.99\t0.01\n"), 10000)
	if err := writeOut(path, func(w io.Writer) error {
		_, err := w.Write(want)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("file holds %d bytes, want the %d written (a longer old file is truncated)", len(got), len(want))
	}
}

func TestWriteOutReturnsWriterError(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	err := writeOut(filepath.Join(dir, "fig.tsv"), func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("writeOut returned %v, want the writer's error", err)
	}
	if err := writeOut(filepath.Join(dir, "missing", "fig.tsv"), func(io.Writer) error {
		t.Fatal("writer ran without an output file")
		return nil
	}); err == nil {
		t.Fatal("writeOut into a missing directory returned nil")
	}
}

// TestScenarioTSVAndJSONAgreeOnNoServerLine: an rrg with no sps= hosts no
// servers, so its permutation traffic has no flows and nothing to
// measure. Both output forms report every point infeasible; the TSV used
// to print +Inf rows and exit 0 while -json failed on the +Inf.
func TestScenarioTSVAndJSONAgreeOnNoServerLine(t *testing.T) {
	const line = "topo=rrg:n=16,deg=6 traffic=permutation eval=mcf sweep=deg:4..6:2 runs=1"
	dir := t.TempDir()
	tsvPath, jsonPath := filepath.Join(dir, "out.tsv"), filepath.Join(dir, "out.json")
	if err := runScenario(line, 0, 1, 0, scenario.NewCache(), tsvPath, false, false); err != nil {
		t.Fatalf("TSV: %v", err)
	}
	if err := runScenario(line, 0, 1, 0, scenario.NewCache(), jsonPath, true, false); err != nil {
		t.Fatalf("-json: %v", err)
	}
	tsv, err := os.ReadFile(tsvPath)
	if err != nil {
		t.Fatal(err)
	}
	var tsvInfeasible []string
	for _, row := range strings.Split(strings.TrimSpace(string(tsv)), "\n") {
		if !strings.HasPrefix(row, "#") {
			t.Fatalf("TSV row %q measured a value, want every point infeasible:\n%s", row, tsv)
		}
		if coords, ok := strings.CutSuffix(strings.TrimPrefix(row, "# "), "\tinfeasible"); ok {
			tsvInfeasible = append(tsvInfeasible, coords)
		}
	}
	body, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var resp service.EvalResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	var jsonInfeasible []string
	for _, pt := range resp.Points {
		if pt.OK {
			t.Fatalf("-json point %v is ok, want infeasible:\n%s", pt.Coords, body)
		}
		jsonInfeasible = append(jsonInfeasible, strings.Join(pt.Coords, "\t"))
	}
	if want := []string{"4", "6"}; !slices.Equal(tsvInfeasible, want) || !slices.Equal(jsonInfeasible, want) {
		t.Fatalf("infeasible points: TSV %q, -json %q, want %q in both", tsvInfeasible, jsonInfeasible, want)
	}
}
