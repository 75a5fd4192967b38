// Command benchjson runs the repository's hot-path micro-benchmarks
// programmatically and emits a JSON snapshot (BENCH_<date>.json) so the
// performance trajectory can be tracked across PRs without parsing `go
// test -bench` text output.
//
// Usage:
//
//	benchjson [-o dir] [-benchtime 1s] [-load-duration 2s]
//	          [-baseline BENCH_x.json] [-gate name=pct,...]
//
// Every benchmark body lives once, in internal/benchsuite: `go test
// -bench` runs the suite from the root bench_test.go, and benchjson runs
// the entries snapshotNames lists, under the same names. The snapshot
// covers the flow solver (scale, epsilon, and repair-vs-rebuild
// ablations),
// the incremental-evaluation path (SolverWarmStart/{ladder,expand}: the
// same delta-shaped points solved cold vs warm-started from the parent's
// stored witness; the ladder's ≥3× cold/warm speedup is enforced by the
// run itself, baseline or not), the scenario engine's solve cache (cold
// vs warm repeated-instance sweep), the persistent result store (cold process vs warm restart over
// a primed store directory), the remote store client (a Load round trip
// against a warm peer, clean vs through the chaos injector), the
// shortest-path tree rung (GraphTree/dual/rrg: the solver's early-exit
// rebuilds under a solved dual, heap vs bucket queue), the
// bisection-bandwidth estimator, two representative figure runners in
// quick mode (one grid-heavy, one decomposition-heavy), and the serve
// dataplane: ServeEvalWarm (one warm POST /v1/eval through the handler
// stack — the response-byte-cache hit path, allocs/op and all) plus
// ServeLoad/{warm,mixed}/{p50,p99} from the deterministic open-loop load
// generator (internal/loadgen) against an in-process daemon.
//
// With -baseline, the fresh snapshot is compared entry-by-entry against a
// committed earlier snapshot, which must have been recorded at the same
// GOMAXPROCS; -gate turns selected comparisons into hard
// failures, e.g. -gate "SolverScale/n=80=25" exits non-zero if that
// benchmark's ns/op — or, when the baseline recorded allocations, its
// allocs/op — regressed more than 25% — the CI perf gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/loadgen"
	"repro/internal/scenario"
	"repro/internal/service"
)

// Entry is one benchmark measurement.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Seconds     float64 `json:"seconds"`
}

// Snapshot is the emitted file format.
type Snapshot struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Entries    []Entry `json:"entries"`
}

// snapshotNames are the benchsuite entries a snapshot records, in order;
// the ServeLoad entries follow them.
var snapshotNames = []string{
	"SolverScale/n=20", "SolverScale/n=40", "SolverScale/n=80",
	"SolverEpsilon/eps=0.2", "SolverEpsilon/eps=0.1", "SolverEpsilon/eps=0.05",
	"SolverRepair/n=400/repair", "SolverRepair/n=400/rebuild",
	"ScenarioCache/cold", "ScenarioCache/warm",
	"StoreColdWarm/cold", "StoreColdWarm/warm",
	"RemoteStore/clean", "RemoteStore/faulty",
	"SolverWarmStart/ladder/cold", "SolverWarmStart/ladder/warm",
	"SolverWarmStart/expand/cold", "SolverWarmStart/expand/warm",
	"GraphTree/dual/rrg/heap", "GraphTree/dual/rrg/bucket",
	"BisectionBandwidth",
	"Fig2a", "Fig9a",
	"ServeEvalWarm",
}

func main() {
	testing.Init() // register test.* flags so benchtime is settable
	out := flag.String("o", ".", "output directory for BENCH_<date>.json")
	benchtime := flag.Duration("benchtime", time.Second, "per-benchmark target runtime")
	baseline := flag.String("baseline", "", "earlier BENCH_*.json to compare the fresh snapshot against")
	gate := flag.String("gate", "", "comma-separated name=maxRegressPct gates enforced against -baseline")
	loadDur := flag.Duration("load-duration", 2*time.Second, "ServeLoad open-loop measured window per mix")
	flag.Parse()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fatal(err)
	}
	// The snapshot is written after minutes of benchmarks; an unusable -o
	// must fail before the first one.
	if err := checkWritable(*out); err != nil {
		fatal(err)
	}

	snap := Snapshot{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	bodies := make(map[string]func(*testing.B), len(benchsuite.Suite))
	for _, e := range benchsuite.Suite {
		bodies[e.Name] = e.F
	}
	ns := map[string]int64{}
	for _, name := range snapshotNames {
		f := bodies[name]
		if f == nil {
			fatal(fmt.Errorf("no benchsuite entry named %s", name))
		}
		r := testing.Benchmark(f)
		if r.N == 0 {
			fatal(fmt.Errorf("%s failed", name))
		}
		e := Entry{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Seconds:     r.T.Seconds(),
		}
		snap.Entries = append(snap.Entries, e)
		ns[name] = e.NsPerOp
		fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %10d allocs/op\n", name, e.NsPerOp, e.AllocsPerOp)
	}
	// Incremental what-if evaluation: the ladder's cold/warm ratio is
	// enforced right here — a benchjson run where warm starts stop paying
	// fails, baseline or not.
	for _, c := range []struct {
		name string
		min  float64 // enforced cold/warm speedup (0: report only)
	}{{"ladder", 3}, {"expand", 0}} {
		ratio := float64(ns["SolverWarmStart/"+c.name+"/cold"]) / float64(ns["SolverWarmStart/"+c.name+"/warm"])
		fmt.Fprintf(os.Stderr, "%-28s %12.2fx cold/warm\n", "SolverWarmStart/"+c.name, ratio)
		if c.min > 0 && ratio < c.min {
			fatal(fmt.Errorf("SolverWarmStart/%s: warm start only %.2fx faster than cold (acceptance floor %.0fx)",
				c.name, ratio, c.min))
		}
	}
	for _, l := range []struct {
		mode string
		miss float64
	}{{"warm", 0}, {"mixed", 0.1}} {
		res := runServeLoad(l.miss, *loadDur)
		for _, p := range []struct {
			name string
			ns   int64
		}{{"p50", int64(res.P50)}, {"p99", int64(res.P99)}} {
			e := Entry{
				Name:       fmt.Sprintf("ServeLoad/%s/%s", l.mode, p.name),
				Iterations: res.Requests,
				NsPerOp:    p.ns,
				Seconds:    res.Elapsed.Seconds(),
			}
			snap.Entries = append(snap.Entries, e)
			fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %10.1f rps\n", e.Name, e.NsPerOp, res.RPS)
		}
		if res.Errors > 0 || res.Statuses[http.StatusOK] != res.Requests {
			fatal(fmt.Errorf("ServeLoad/%s: %d errors, statuses %v", l.mode, res.Errors, res.Statuses))
		}
	}

	path := filepath.Join(*out, "BENCH_"+snap.Date+".json")
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println(path)

	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var base Snapshot
		if err := json.Unmarshal(raw, &base); err != nil {
			fatal(fmt.Errorf("parsing baseline %s: %w", *baseline, err))
		}
		fmt.Fprintf(os.Stderr, "\nvs baseline %s (%s):\n", *baseline, base.Date)
		if err := compare(&base, &snap, *gate); err != nil {
			fatal(err)
		}
	}
}

// checkWritable reports whether a file can be created in dir.
func checkWritable(dir string) error {
	f, err := os.CreateTemp(dir, ".benchjson-*")
	if err != nil {
		return fmt.Errorf("-o %s is not a writable directory: %w", dir, err)
	}
	f.Close()
	return os.Remove(f.Name())
}

// compare prints per-entry deltas against a baseline snapshot and enforces
// the -gate regression limits. Snapshots taken at different GOMAXPROCS
// are not compared at all: the engine-level entries map their points and
// runs across the default GOMAXPROCS bound, so their ns/op (and
// allocs/op) move with the CPU count.
func compare(base, snap *Snapshot, gates string) error {
	if base.GOMAXPROCS != snap.GOMAXPROCS {
		return fmt.Errorf("baseline recorded at GOMAXPROCS=%d but this run at GOMAXPROCS=%d: rerun with GOMAXPROCS=%d to compare",
			base.GOMAXPROCS, snap.GOMAXPROCS, base.GOMAXPROCS)
	}
	baseBy := make(map[string]Entry, len(base.Entries))
	for _, e := range base.Entries {
		baseBy[e.Name] = e
	}
	limits := map[string]float64{}
	if gates != "" {
		for _, g := range strings.Split(gates, ",") {
			g = strings.TrimSpace(g)
			// Benchmark names contain '=' (SolverScale/n=80), so the limit
			// is everything after the LAST '='.
			cut := strings.LastIndex(g, "=")
			if cut < 0 {
				return fmt.Errorf("bad -gate entry %q (want name=pct)", g)
			}
			name, pctStr := g[:cut], g[cut+1:]
			pct, err := strconv.ParseFloat(pctStr, 64)
			if err != nil {
				return fmt.Errorf("bad -gate percentage in %q: %w", g, err)
			}
			limits[name] = pct
		}
	}
	var failures []string
	for _, e := range snap.Entries {
		b, ok := baseBy[e.Name]
		if !ok || b.NsPerOp == 0 {
			fmt.Fprintf(os.Stderr, "  %-28s %12d ns/op  (no baseline)\n", e.Name, e.NsPerOp)
			continue
		}
		delta := 100 * (float64(e.NsPerOp) - float64(b.NsPerOp)) / float64(b.NsPerOp)
		mark := ""
		if lim, gated := limits[e.Name]; gated {
			mark = fmt.Sprintf("  [gate %.0f%%]", lim)
			if delta > lim {
				mark += " FAIL"
				failures = append(failures, fmt.Sprintf("%s regressed %.1f%% (limit %.0f%%): %d -> %d ns/op",
					e.Name, delta, lim, b.NsPerOp, e.NsPerOp))
			}
			// A gate also pins allocs/op (when the baseline recorded any):
			// the zero-alloc dataplane must not quietly grow garbage even if
			// wall-clock stays inside the limit.
			if b.AllocsPerOp > 0 {
				aDelta := 100 * (float64(e.AllocsPerOp) - float64(b.AllocsPerOp)) / float64(b.AllocsPerOp)
				if aDelta > lim {
					mark += " ALLOC-FAIL"
					failures = append(failures, fmt.Sprintf("%s allocs regressed %.1f%% (limit %.0f%%): %d -> %d allocs/op",
						e.Name, aDelta, lim, b.AllocsPerOp, e.AllocsPerOp))
				}
			}
		}
		fmt.Fprintf(os.Stderr, "  %-28s %12d ns/op  %+7.1f%%%s\n", e.Name, e.NsPerOp, delta, mark)
	}
	// A gate that matches nothing must fail loudly — otherwise renaming a
	// benchmark silently turns the CI gate vacuous.
	snapBy := make(map[string]bool, len(snap.Entries))
	for _, e := range snap.Entries {
		snapBy[e.Name] = true
	}
	for name := range limits {
		if b, ok := baseBy[name]; !ok || b.NsPerOp == 0 {
			failures = append(failures, fmt.Sprintf("gated benchmark %s missing from baseline", name))
		}
		if !snapBy[name] {
			failures = append(failures, fmt.Sprintf("gated benchmark %s missing from this run", name))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// runServeLoad drives the deterministic open-loop load generator against
// an in-process serve daemon: 16 zipf-popular warm keys, optionally mixed
// with fresh never-seen grids, measured over dur. The p50/p99 numbers
// land in the snapshot as ServeLoad/<mix>/<pct>.
func runServeLoad(missFrac float64, dur time.Duration) loadgen.Result {
	cache := scenario.NewCache()
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true}
	svc := service.New(service.Config{Engine: eng, Cache: cache, MaxJobs: 8})
	hs := httptest.NewServer(svc.Handler())
	defer hs.Close()
	universe := make([]string, 16)
	for i := range universe {
		universe[i] = benchsuite.ServeGrid(i + 1)
	}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:  hs.URL,
		Universe: universe,
		Rate:     400,
		Duration: dur,
		Conns:    8,
		Seed:     1,
		MissFrac: missFrac,
		MissGrid: func(i int) string { return benchsuite.ServeGrid(1_000_000 + i) },
		Prime:    true,
	})
	if err != nil {
		fatal(err)
	}
	return res
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
