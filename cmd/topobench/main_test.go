package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
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
