// Package runner is the concurrency substrate of the experiment layer.
//
// Every figure of the evaluation is a grid of independent measurements:
// (topology family × parameter × run) points that share no state beyond
// read-only options. Map evaluates such a grid concurrently and returns
// results indexed exactly as the grid was enumerated. Callers keep all
// randomness inside each task, seeded deterministically from (base seed,
// point index), and reduce the returned slice serially in index order — so
// parallel output is byte-identical to a serial run of the same grid.
//
// Maps nest freely: the scenario engine maps a grid's (point, run) pairs
// as one flat Map, a run may map bisection trials, and a point may map the
// one-point grid of its warm-start parent. One process-wide weighted
// semaphore is the only concurrency bound: it caps the TOTAL in-flight
// work across all nesting levels at SetMaxInFlight (default GOMAXPROCS).
// The calling goroutine of every Map always works inline — it already owns
// a concurrency slot, inherited from whatever spawned it — and each helper
// goroutine needs a token from the shared semaphore, acquired
// non-blockingly. When the semaphore is saturated by outer levels, inner
// Maps simply degrade toward serial execution instead of multiplying
// goroutines. SetMaxInFlight(1) admits no helper at all, so every Map,
// nested or not, runs inline in index order: the serial reference mode.
// Results are unaffected: scheduling never changes task outputs or their
// order.
//
// A task's panic is a failure at its index like an error, on whichever
// goroutine the task ran: Map recovers it there and, once every helper
// has returned, re-raises it in its own caller as a *Panic, so a recover
// around the outermost Map catches a panic from any task at any depth.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// inflight implements the shared weighted semaphore: helper (non-caller)
// tokens outstanding, and the cap on them. The cap is the max in-flight
// bound minus one, the caller's own slot.
var (
	inflightExtra atomic.Int64
	inflightCap   atomic.Int64
)

func init() { SetMaxInFlight(0) }

// SetMaxInFlight bounds the total concurrently-running tasks across every
// Map in the process, including nested ones, to n (n <= 0 restores the
// GOMAXPROCS default; 1 runs every Map serially). Top-level callers
// running tasks inline count against the bound by construction; helper
// goroutines are limited to n − 1.
func SetMaxInFlight(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	inflightCap.Store(int64(n) - 1)
}

// tryAcquire takes one helper token if the semaphore has room.
func tryAcquire() bool {
	for {
		cur := inflightExtra.Load()
		if cur >= inflightCap.Load() {
			return false
		}
		if inflightExtra.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func release() { inflightExtra.Add(-1) }

// Map evaluates fn(0), …, fn(n-1) and returns the results in index order.
// The caller works through the indices inline, joined by as many helper
// goroutines as the process-wide semaphore admits (at most n − 1). fn must
// be safe for concurrent invocation with distinct indices.
//
// Error semantics match a serial loop: if any tasks fail, by error or by
// panic, the lowest failing index decides. Map returns its error, or
// re-raises its panic in the caller as a *Panic. Tasks with indices above
// the lowest known failure may be skipped, but every index below it is
// evaluated, so the outcome is deterministic.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	var (
		next       atomic.Int64
		mu         sync.Mutex
		errIdx     = -1
		firstErr   error
		firstPanic *Panic
		wg         sync.WaitGroup
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			mu.Lock()
			skip := errIdx >= 0 && errIdx < i
			mu.Unlock()
			if skip {
				continue
			}
			v, p, err := call(fn, i)
			if err != nil || p != nil {
				mu.Lock()
				if errIdx < 0 || i < errIdx {
					errIdx, firstErr, firstPanic = i, err, p
				}
				mu.Unlock()
				continue
			}
			out[i] = v
		}
	}
	for w := 0; w < n-1 && tryAcquire(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			work()
		}()
	}
	work()
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
	if errIdx >= 0 {
		return nil, firstErr
	}
	return out, nil
}

// Panic is a task's panic as Map re-raises it: the value the task panicked
// with and the stack of the goroutine it panicked on.
type Panic struct {
	Value any
	Stack []byte
}

// Error carries the task's stack, so a re-raised panic that nothing
// recovers still prints where the task panicked.
func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\ntask goroutine stack:\n%s", p.Value, p.Stack)
}

// call runs fn(i), turning a panic into a *Panic. A *Panic re-raised by a
// nested Map passes through as it is, so it keeps the innermost task's
// value and stack.
func call[T any](fn func(i int) (T, error), i int) (v T, p *Panic, err error) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if p, ok = r.(*Panic); !ok {
				p = &Panic{Value: r, Stack: debug.Stack()}
			}
		}
	}()
	v, err = fn(i)
	return v, nil, err
}
