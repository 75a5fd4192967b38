package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest value with at least p% of the sample at or below it.
// It returns NaN for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// minOpsForP90 is the smallest sample that leaves at least ten ops beyond
// its nearest-rank 90th percentile.
const minOpsForP90 = 100

// latReserve is the latency sample's initial capacity, in ops.
const latReserve = 1 << 19

// window accumulates one measured stretch of a workload: every attempted
// op's latency, the failures among them, and the wall and CPU time spent
// inside the timed passes (set-up between passes is excluded).
type window struct {
	latMs     []float64
	attempted int
	failed    int
	wall      time.Duration
	cpu       time.Duration
}

// record adds one op. A failed op stays in the latency sample as +Inf, so
// it counts as missing any latency limit.
func (w *window) record(d time.Duration, err error) {
	w.attempted++
	if err != nil {
		w.failed++
		w.latMs = append(w.latMs, math.Inf(1))
		return
	}
	w.latMs = append(w.latMs, float64(d.Nanoseconds())/1e6)
}

// opsPerSec counts completed (not failed) ops over the measured wall time.
func (w *window) opsPerSec() float64 {
	if w.wall <= 0 {
		return 0
	}
	return float64(w.attempted-w.failed) / w.wall.Seconds()
}

// cpuMsPerOp is process user+sys CPU over the window per attempted op.
func (w *window) cpuMsPerOp() float64 {
	if w.attempted == 0 {
		return 0
	}
	return float64(w.cpu.Nanoseconds()) / 1e6 / float64(w.attempted)
}

// processCPU returns the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// passLoop drives a closed loop with one caller over whole passes of an
// op list of n ops: before each pass it calls reset (untimed), then runs
// ops 0..n-1 back to back. It stops at the first pass boundary where at
// least seconds of measured time have passed and at least minOps ops
// were attempted, so two runs of the same op list time the same ops.
func passLoop(w *window, seconds float64, minOps, n int, reset func() error, op func(i int) error) error {
	if w.latMs == nil {
		// Reserve the sample up front, and touch it, so its growth never
		// copies it: the run's peak RSS then carries a fixed share for it
		// instead of depending on whether a copy met a GC.
		buf := make([]float64, latReserve)
		for i := range buf {
			buf[i] = 1
		}
		w.latMs = buf[:0]
	}
	for w.wall.Seconds() < seconds || w.attempted < minOps {
		if reset != nil {
			if err := reset(); err != nil {
				return err
			}
		}
		cpu0, t0 := processCPU(), time.Now()
		for i := 0; i < n; i++ {
			s := time.Now()
			err := op(i)
			w.record(time.Since(s), err)
		}
		w.wall += time.Since(t0)
		w.cpu += processCPU() - cpu0
	}
	return nil
}

// sleepLateness probes how late a bare time.Sleep wakes: the median, over
// n sleeps of d, of the measured sleep minus d, in microseconds. It is
// the timer floor an open-loop generator pacing requests with sleeps
// adds to every request; a closed loop does not pay it.
func sleepLateness(n int, d time.Duration) float64 {
	late := make([]float64, n)
	for i := range late {
		s := time.Now()
		time.Sleep(d)
		late[i] = float64((time.Since(s) - d).Nanoseconds()) / 1e3
	}
	return median(late)
}
