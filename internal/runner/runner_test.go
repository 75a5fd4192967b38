package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		n := 100
		got, err := Map(p, n, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(New(4), 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty map: got %v, %v", got, err)
	}
}

func TestMapLowestErrorWins(t *testing.T) {
	// Multiple failing indices: the reported error must be the one a serial
	// loop would hit first, regardless of scheduling.
	fail := map[int]bool{7: true, 23: true, 61: true}
	want := fmt.Sprintf("task %d", 7)
	for trial := 0; trial < 20; trial++ {
		_, err := Map(New(8), 100, func(i int) (int, error) {
			if fail[i] {
				return 0, errors.New(fmt.Sprintf("task %d", i))
			}
			return i, nil
		})
		if err == nil || err.Error() != want {
			t.Fatalf("trial %d: got error %v, want %q", trial, err, want)
		}
	}
}

func TestMapRunsEveryIndexBelowFailure(t *testing.T) {
	var ran [50]atomic.Bool
	_, err := Map(New(4), 50, func(i int) (int, error) {
		ran[i].Store(true)
		if i == 40 {
			return 0, errors.New("boom")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	for i := 0; i < 40; i++ {
		if !ran[i].Load() {
			t.Fatalf("index %d below the failure was skipped", i)
		}
	}
}

func TestSerialPoolRunsInline(t *testing.T) {
	p := New(1)
	if !p.Serial() {
		t.Fatal("New(1) should be serial")
	}
	// Inline execution means strict index order.
	last := -1
	_, err := Map(p, 20, func(i int) (int, error) {
		if i != last+1 {
			t.Fatalf("serial pool ran %d after %d", i, last)
		}
		last = i
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 {
		t.Fatal("Workers(0) must be at least 1")
	}
	if Workers(5) != 5 {
		t.Fatalf("Workers(5) = %d", Workers(5))
	}
}

// TestNestedMapsBounded: with the shared semaphore capped at w, nested
// Maps (grid × runs, like every figure runner) must never have more than w
// tasks executing simultaneously — previously each level multiplied its
// own worker count.
func TestNestedMapsBounded(t *testing.T) {
	const cap = 4
	SetMaxInFlight(cap)
	defer SetMaxInFlight(0)
	var cur, peak atomic.Int64
	_, err := Map(New(cap), 6, func(i int) ([]struct{}, error) {
		return Map(New(cap), 6, func(j int) (struct{}, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return struct{}{}, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > cap {
		t.Fatalf("peak in-flight %d exceeds the %d bound", p, cap)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("no parallelism at all (peak %d); the semaphore is over-throttling", p)
	}
}

// TestMapAfterSaturationStillCompletes: when no helper tokens are
// available, Map must fall back to inline execution and still finish.
func TestMapAfterSaturationStillCompletes(t *testing.T) {
	SetMaxInFlight(1) // zero helper tokens: everything runs inline
	defer SetMaxInFlight(0)
	got, err := Map(New(8), 30, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}
