package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	defer SetMaxInFlight(0)
	for _, workers := range []int{1, 2, 8} {
		SetMaxInFlight(workers)
		n := 100
		got, err := Map(n, func(i int) (int, error) { return i * i, nil })
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
	got, err := Map(0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty map: got %v, %v", got, err)
	}
}

func TestMapLowestErrorWins(t *testing.T) {
	// Multiple failing indices: the reported error must be the one a serial
	// loop would hit first, regardless of scheduling.
	SetMaxInFlight(8)
	defer SetMaxInFlight(0)
	fail := map[int]bool{7: true, 23: true, 61: true}
	want := fmt.Sprintf("task %d", 7)
	for trial := 0; trial < 20; trial++ {
		_, err := Map(100, func(i int) (int, error) {
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
	SetMaxInFlight(4)
	defer SetMaxInFlight(0)
	var ran [50]atomic.Bool
	_, err := Map(50, func(i int) (int, error) {
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

// TestSerialPoolRunsInline: at SetMaxInFlight(1) every Map, nested or
// not, runs its tasks inline in index order — outer task i's inner tasks
// all run before outer task i+1 starts.
func TestSerialPoolRunsInline(t *testing.T) {
	SetMaxInFlight(1)
	defer SetMaxInFlight(0)
	var order []int
	_, err := Map(5, func(i int) ([]int, error) {
		return Map(4, func(j int) (int, error) {
			order = append(order, 4*i+j)
			return j, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 20 {
		t.Fatalf("ran %d tasks, want 20", len(order))
	}
	for k, v := range order {
		if v != k {
			t.Fatalf("serial bound ran task %d in position %d: %v", v, k, order)
		}
	}
}

// TestSetMaxInFlightDefault: 0 restores the GOMAXPROCS bound, and any
// positive n admits n − 1 helpers beside the caller.
func TestSetMaxInFlightDefault(t *testing.T) {
	defer SetMaxInFlight(0)
	SetMaxInFlight(5)
	if got := inflightCap.Load(); got != 4 {
		t.Fatalf("SetMaxInFlight(5): %d helper tokens, want 4", got)
	}
	SetMaxInFlight(0)
	if got, want := inflightCap.Load(), int64(runtime.GOMAXPROCS(0))-1; got != want {
		t.Fatalf("SetMaxInFlight(0): %d helper tokens, want GOMAXPROCS−1 = %d", got, want)
	}
}

// TestNestedMapsBounded: with the shared semaphore capped at w, nested
// Maps (grid × runs, like every figure runner) must never have more than w
// tasks executing simultaneously.
func TestNestedMapsBounded(t *testing.T) {
	const cap = 4
	SetMaxInFlight(cap)
	defer SetMaxInFlight(0)
	var cur, peak atomic.Int64
	_, err := Map(6, func(i int) ([]struct{}, error) {
		return Map(6, func(j int) (struct{}, error) {
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
	got, err := Map(30, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}
