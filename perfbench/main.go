// Command perfbench is the repository's benchmark. It drives the system
// through surfaces later changes should not need to touch — scenario
// grid lines on a scenario.Engine for batch work, and the HTTP API of
// service.New(cfg).Handler() on loopback for serving — and reports
// end-to-end metrics per workload, or, with --trace 1, per-layer metrics
// from spans the benchmark records around each layer's public functions.
//
//	perfbench --workload sweep|whatif|serve-warm --seed N --seconds S --trace 0|1
//	perfbench compare OLD.jsonl NEW.jsonl
//
// Every workload is a closed loop with one caller over whole passes of an
// op list fixed by --seed. The last line of standard output is the
// result object; the line before it records the environment. Each run's
// record is also appended to .bench_build/perfbench/runs.jsonl, the input
// of the compare subcommand. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind, inside the checkout.
const outDir = ".bench_build/perfbench"

// setupReps is how often a run repeats its workload's set-up; setup_s is
// the median.
const setupReps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload. setup builds a fresh instance in
// dir (the previous instance, if any, is closed first); ops is the pass
// length; reset runs untimed before each pass; op runs op i, recording
// spans on t when t is non-nil; layers derives the per-layer metrics
// from the traced window.
type workload interface {
	setup(dir string) error
	ops() int
	reset() error
	op(i int, t *tracer) error
	layers(t *tracer) map[string]float64
	close()
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed int64, work string) workload{
	"sweep":      newSweep,
	"whatif":     newWhatif,
	"serve-warm": newServeWarm,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fatalf("usage: perfbench compare OLD.jsonl NEW.jsonl")
		}
		if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fatalf("%v", err)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: sweep, whatif or serve-warm")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same op list")
		seconds = flag.Float64("seconds", 10, "measured seconds per window (whole passes, at least)")
		traced  = flag.Int("trace", 0, "1: add a traced window and report per-layer metrics")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (want sweep, whatif or serve-warm)", *name)
	}
	work := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	res, err := run(mk(*seed, work), *name, *seed, *seconds, *traced == 1, work)
	os.RemoveAll(work)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	e := currentEnv()
	envLine, _ := json.Marshal(map[string]any{"env": e})
	fmt.Println(string(envLine))
	if err := appendRecord(record{Env: e, Workload: *name, Seed: *seed, Trace: *traced == 1, Result: res}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: recording run: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run sets the workload up setupReps times, measures the untraced window
// and, when traced, one traced pass, and assembles the result.
func run(w workload, name string, seed int64, seconds float64, traced bool, work string) (result, error) {
	defer w.close()
	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if err := w.setup(filepath.Join(work, fmt.Sprintf("setup-%d", r))); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d: set-up %.3fs (median of %d), peak RSS after set-up %.2f MiB\n",
		name, seed, median(setups), setupReps, peakRSSMB())
	var win window
	if err := passLoop(&win, seconds, minOpsForP90+10, w.ops(), w.reset,
		func(i int) error { return w.op(i, nil) }); err != nil {
		return result{}, err
	}
	res := result{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed}
	if !traced {
		res.Metrics = map[string]metric{
			"setup_s":       {median(setups), "s"},
			"peak_rss_mb":   {peakRSSMB(), "MiB"},
			"ops_per_s":     {win.opsPerSec(), "1/s"},
			"p50_ms":        {finite(percentile(win.latMs, 50)), "ms"},
			"p90_ms":        {finite(percentile(win.latMs, 90)), "ms"},
			"cpu_ms_per_op": {win.cpuMsPerOp(), "ms"},
		}
		fmt.Fprintf(os.Stderr, "%s seed=%d: %d ops (%d failed) in %.1fs, p50 %.4f ms, p90 %.4f ms\n",
			name, seed, win.attempted, win.failed, win.wall.Seconds(),
			percentile(win.latMs, 50), percentile(win.latMs, 90))
		return res, nil
	}

	late := sleepLateness(200, time.Millisecond)
	// One traced pass: every op of the list once, enough for per-layer
	// medians, and a span file that stays small on the fast workloads.
	t := newTracer()
	var twin window
	if err := passLoop(&twin, 0, 1, w.ops(), w.reset,
		func(i int) error { return w.op(i, t) }); err != nil {
		return result{}, err
	}
	res.Correct = res.Correct && twin.failed == 0
	res.Attempted += twin.attempted
	res.Failed += twin.failed
	layers := w.layers(t)
	layers["driver.sleep_late_us"] = late
	// Traced throughput counts only the end-to-end calls, not the
	// decomposition replayed around them.
	var e2e time.Duration
	for _, s := range t.spans {
		if s.Name == "e2e" {
			e2e += s.dur()
		}
	}
	if e2e > 0 {
		tracedOps := float64(twin.attempted-twin.failed) / e2e.Seconds()
		layers["trace.overhead_pct"] = (win.opsPerSec()/tracedOps - 1) * 100
	}
	res.Metrics = map[string]metric{}
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{finite(layers[l.name]), l.unit}
	}
	if name == "serve-warm" {
		printLadder(os.Stderr, layers, percentile(win.latMs, 50))
	}
	printSelfTimes(os.Stderr, t.spans)
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
		if err := t.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	return res, nil
}

// perLayer lists every per-layer metric in report order. A traced run
// reports all of them; a metric with no work behind it on the running
// workload reads 0 (see README.md for which workload moves which).
var perLayer = []struct{ name, unit string }{
	{"graph.tree_us", "us"},
	{"graph.bucket_tree_us", "us"},
	{"mcf.solve_ms", "ms"},
	{"mcf.phases", "count"},
	{"mcf.tree_builds", "count"},
	{"mcf.tree_repairs", "count"},
	{"mcf.tree_prebuilds", "count"},
	{"mcf.bucket_share", "ratio"},
	{"mcf.prebuild_share", "ratio"},
	{"mcf.warm_solve_ms", "ms"},
	{"mcf.warm_phases", "count"},
	{"flowcheck.verify_ms", "ms"},
	{"scenario.build_ms", "ms"},
	{"scenario.traffic_ms", "ms"},
	{"scenario.engine_ms", "ms"},
	{"scenario.map_lens_us", "us"},
	{"scenario.warm_cert_ratio", "ratio"},
	{"store.load_us", "us"},
	{"store.save_us", "us"},
	{"service.handler_us", "us"},
	{"service.lead_ms", "ms"},
	{"service.bytecache_hit_ratio", "ratio"},
	{"http.loopback_us", "us"},
	{"driver.sleep_late_us", "us"},
	{"trace.overhead_pct", "%"},
}

// finite maps NaN (no sample) to 0 and +Inf (failed ops beyond the
// percentile) to MaxFloat64, which JSON can carry.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	}
	return v
}

// printLadder writes the serve-warm latency as a sum of steps — handler,
// then loopback HTTP — against the untraced p50, with the remainder the
// steps leave unexplained and the sleep probe beside it.
func printLadder(f *os.File, l map[string]float64, p50ms float64) {
	h, lb := l["service.handler_us"], l["http.loopback_us"]
	p50 := p50ms * 1000
	fmt.Fprintf(f, "serve-warm latency ladder (medians, µs):\n")
	fmt.Fprintf(f, "  service.handler_us      %10.2f\n", h)
	fmt.Fprintf(f, "+ http.loopback_us        %10.2f\n", lb)
	fmt.Fprintf(f, "= explained               %10.2f\n", h+lb)
	fmt.Fprintf(f, "  p50_ms (untraced)       %10.2f\n", p50)
	fmt.Fprintf(f, "  unexplained             %10.2f\n", p50-h-lb)
	fmt.Fprintf(f, "  driver.sleep_late_us    %10.2f  (added per request by a generator that paces with time.Sleep; this closed loop does not sleep)\n",
		l["driver.sleep_late_us"])
}

// printSelfTimes writes the median self time of every span name.
func printSelfTimes(f *os.File, spans []span) {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "span self time (median µs, count):\n")
	for _, n := range names {
		us := make([]float64, len(st[n]))
		for i, d := range st[n] {
			us[i] = float64(d.Nanoseconds()) / 1e3
		}
		fmt.Fprintf(f, "  %-22s %12.2f %8d\n", n, median(us), len(us))
	}
}

// env is the machine a run was measured on.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func currentEnv() env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		e.Kernel = b.String()
	}
	return e
}
