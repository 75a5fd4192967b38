// Package runner is the worker-pool substrate of the experiment layer.
//
// Every figure of the evaluation is a grid of independent measurements:
// (topology family × parameter × run) points that share no state beyond
// read-only options. Map evaluates such a grid concurrently, bounded by
// GOMAXPROCS by default, and returns results indexed exactly as the grid
// was enumerated. Callers keep all randomness inside each task, seeded
// deterministically from (base seed, point index), and reduce the returned
// slice serially in index order — so parallel output is byte-identical to
// a serial run of the same grid.
//
// Maps nest freely: the scenario engine maps a grid's points, each point
// its runs, and a run may call packet simulations and bisection trials,
// each mapping onto a pool of its own. A process-wide weighted semaphore bounds the TOTAL in-flight work
// across all nesting levels to SetMaxInFlight (default GOMAXPROCS): the
// calling goroutine of every Map always works inline — it already owns a
// concurrency slot, inherited from whatever spawned it — and extra worker
// goroutines each need a token from the shared semaphore, acquired
// non-blockingly. When the semaphore is saturated by outer levels, inner
// Maps simply degrade toward serial execution instead of multiplying
// goroutines (workers² and worse before this bound existed). Results are
// unaffected: scheduling never changes task outputs or their order.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// inflight implements the shared weighted semaphore: extra (non-caller)
// worker tokens outstanding, and the cap on them. The cap is the max
// in-flight bound minus one, the caller's own slot.
var (
	inflightExtra atomic.Int64
	inflightCap   atomic.Int64
)

func init() { inflightCap.Store(int64(runtime.GOMAXPROCS(0)) - 1) }

// SetMaxInFlight bounds the total concurrently-running tasks across every
// Map in the process, including nested ones, to n (n <= 0 restores the
// GOMAXPROCS default). Top-level callers running tasks inline count
// against the bound by construction; helper goroutines are limited to
// n − 1.
func SetMaxInFlight(n int) {
	inflightCap.Store(int64(Workers(n)) - 1)
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

// Workers normalizes a worker-count option: n <= 0 means GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Pool bounds the concurrency of grid evaluations. The zero value is not
// usable; call New. A Pool holds no goroutines between calls — each Map
// spins up at most Workers goroutines and joins them before returning.
type Pool struct {
	workers int
}

// New returns a pool running at most workers tasks concurrently;
// workers <= 0 means GOMAXPROCS. New(1) yields a pool that runs tasks
// inline on the calling goroutine, which is the serial reference mode.
func New(workers int) *Pool {
	return &Pool{workers: Workers(workers)}
}

// Serial reports whether the pool runs tasks inline without goroutines.
func (p *Pool) Serial() bool { return p.workers <= 1 }

// Map evaluates fn(0), …, fn(n-1) on the pool and returns the results in
// index order. fn must be safe for concurrent invocation with distinct
// indices (it is called inline when the pool is serial).
//
// Error semantics match a serial loop: if any tasks fail, Map returns the
// error of the lowest failing index. Tasks with indices above the lowest
// known failure may be skipped, but every index below it is evaluated, so
// the returned error is deterministic.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	if p.Serial() || n == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		errIdx   = -1
		firstErr error
		wg       sync.WaitGroup
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
			v, err := fn(i)
			if err != nil {
				mu.Lock()
				if errIdx < 0 || i < errIdx {
					errIdx, firstErr = i, err
				}
				mu.Unlock()
				continue
			}
			out[i] = v
		}
	}
	// The caller participates inline (it already holds a concurrency slot);
	// extra workers spawn only while shared semaphore tokens are available,
	// so nested Maps cannot multiply goroutines past the process bound.
	extra := p.workers - 1
	if extra > n-1 {
		extra = n - 1
	}
	for w := 0; w < extra && tryAcquire(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			work()
		}()
	}
	work()
	wg.Wait()
	if errIdx >= 0 {
		return nil, firstErr
	}
	return out, nil
}

// Each is Map for tasks with no result value.
func Each(p *Pool, n int, fn func(i int) error) error {
	_, err := Map(p, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
