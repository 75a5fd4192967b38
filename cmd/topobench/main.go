// Command topobench regenerates the paper's figures, runs arbitrary
// topology-evaluation scenarios, and serves them over HTTP.
//
// Usage:
//
//	topobench -fig 6a [-runs 20] [-seed 1] [-eps 0.08] [-quick] [-o out.tsv]
//	topobench -list
//	topobench -all -quick -o results/
//	topobench -scenario "topo=rrg:n=400,deg=10,sps=5 traffic=permutation eval=mcf sweep=deg:4..16"
//	topobench -scenario "..." -json -cache-dir ~/.cache/topobench
//	topobench -scenario-list
//	topobench serve -addr :8080 -cache-dir /var/lib/topobench [-jobs 8] [-store-max-bytes 1e9] [-trace-sample 0.01] [-log-format json]
//	topobench submit -server http://127.0.0.1:8080 -grid "topo=... traffic=... eval=..." [-o out.json]
//	topobench submit -server http://127.0.0.1:8080 -job <id>
//	topobench loadgen -server http://127.0.0.1:8080 -rate 300 -duration 5s [-miss 0.1] [-json]
//
// The submit subcommand drives the serve daemon's async job API
// (POST /v1/jobs): the grid is submitted as a detached job, progress is
// polled (and printed to stderr), and the finished canonical JSON — the
// same bytes a synchronous /v1/eval would return — is written out. With
// -job, an existing job (e.g. one submitted before a server restart) is
// re-polled to completion instead.
//
// The loadgen subcommand benchmarks a running daemon: a deterministic
// seeded open-loop load (zipf key popularity over a warm universe,
// configurable hit/miss mix, fixed arrival rate) reporting RPS and
// p50/p95/p99 latency measured from each request's scheduled arrival —
// see internal/loadgen. Serve-side, two observability switches matter for
// load work: `serve -pprof` exposes net/http/pprof profiling handlers
// under /debug/pprof/ (off by default: profiles are an operator tool, not
// part of the public API surface), and `serve -resp-cache-bytes` sizes
// the response-byte cache that answers warm grids without re-marshaling
// (0 = 64 MiB, negative disables; watch
// topobench_response_bytes_cache_{hits,misses,evictions}_total and the
// topobench_request_seconds histogram on /metrics). Request tracing is
// on by default at a 0.1% sample rate (`serve -trace-sample`, with
// `-trace-slow` always capturing slow requests): sampled requests carry
// an X-Trace-Id response header and land in GET /debug/traces with
// per-phase solver and store-tier spans; loadgen -json records the
// trace ids of the run's slowest requests so the tail can be looked up
// directly. Every subcommand takes -log-format text|json for its
// structured (log/slog) diagnostics on stderr.
//
// With -cache-dir, the content-addressed solve cache keeps its results in
// a persistent result store (internal/store) instead of memory: results
// computed by ANY earlier process with the same cache dir are reused
// instead of re-solved, and the exit summary adds store statistics to the
// cache's (each counter keyed by its /metrics family name). The serve
// subcommand exposes the same engine as a long-running JSON service (see
// internal/service for the API); -json prints a -scenario grid in the
// service's canonical response encoding, so batch and served results can
// be compared byte-for-byte.
//
// The -scenario mode executes a declarative grid over the scenario
// registries (see internal/scenario for the spec grammar): any registered
// topology × traffic × evaluator combination, swept over topo/traffic/eval
// parameters, with a content-addressed solve cache deduplicating repeated
// instances. Combinations no paper figure exercises work the same way,
// e.g.
//
//	topobench -scenario "topo=plrrg:n=40,avg=8,kmax=16,sfrac=0.4 traffic=hotspot:frac=0.3 eval=mcf sweep=traffic.frac:0.1,0.3,0.5"
//	topobench -scenario "topo=vl2:da=8,di=8 traffic=none eval=bisection sweep=da:4..12:2"
//
// -workers bounds the total in-flight work at every level at once — grid
// points, their runs, and the trials inside them (0, the default, means
// GOMAXPROCS; -workers 1 is serial everywhere). Every worker count emits
// byte-identical TSV for the same seed.
//
// Output is TSV, one block per curve, matching the series of the paper's
// figure (see DESIGN.md §4 for the per-figure index).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "submit" {
		runSubmit(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		runLoadgen(os.Args[2:])
		return
	}
	var (
		fig      = flag.String("fig", "", "figure ID to regenerate (e.g. 1a, 6c, 12a)")
		all      = flag.Bool("all", false, "regenerate every figure")
		list     = flag.Bool("list", false, "list available figure IDs")
		scen     = flag.String("scenario", "", "run a declarative scenario grid, e.g. \"topo=rrg:n=400,deg=10,sps=5 traffic=permutation eval=mcf sweep=deg:4..16\"")
		scenList = flag.Bool("scenario-list", false, "list the scenario registry (topologies, traffics, evaluators)")
		runs     = flag.Int("runs", 0, "runs per data point (default: 20, or 3 with -quick; scenario default 3)")
		seed     = flag.Int64("seed", 1, "base RNG seed")
		eps      = flag.Float64("eps", 0, "flow solver epsilon (default 0.08, or 0.12 with -quick)")
		quick    = flag.Bool("quick", false, "reduced grids and run counts")
		workers  = flag.Int("workers", 0, "bound on total in-flight work across grid points, runs and trials (0 = GOMAXPROCS, 1 = serial everywhere; output is byte-identical at every count)")
		out      = flag.String("o", "", "output file (or directory with -all); default stdout")
		cacheDir = flag.String("cache-dir", "", "keep the solve cache in a persistent result store in this directory")
		jsonOut  = flag.Bool("json", false, "with -scenario: emit the service's canonical JSON response instead of TSV")
		warm     = flag.Bool("warm-start", false, "with -scenario: seed delta-shaped points (failure ladders, expansion steps) from their parent's stored witness; every warm solve is flowcheck-certified")
		logFmt   = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()
	applyLogFormat(*logFmt)

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *scenList {
		fmt.Println("topologies:")
		for _, k := range scenario.TopologyKinds() {
			fmt.Println("  " + k)
		}
		fmt.Println("traffics:")
		for _, k := range scenario.TrafficKinds() {
			fmt.Println("  " + k)
		}
		fmt.Println("evaluators:")
		for _, k := range scenario.EvaluatorKinds() {
			fmt.Println("  " + k)
		}
		return
	}

	// Bound TOTAL in-flight work (across nested grid/run/trial
	// parallelism) to the requested worker count, not just each level.
	runner.SetMaxInFlight(*workers)
	// Share one solve cache across everything this invocation runs, so
	// figures (and -all batches) reusing instances never re-solve; Fig12b's
	// sizing search relies on it. With -cache-dir it persists beneath this
	// and every future invocation: an unusable dir must fail loudly here,
	// not silently degrade to re-solving everything.
	cache := scenario.NewCache()
	var st *store.Store
	if *cacheDir != "" {
		var err error
		st, err = store.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
		cache.SetBackend(st)
	}
	opts := experiments.Options{Runs: *runs, Seed: *seed, Epsilon: *eps, Quick: *quick, Cache: cache}

	switch {
	case *scen != "":
		if err := runScenario(*scen, *runs, *seed, *eps, cache, *out, *jsonOut, *warm); err != nil {
			fatal(err)
		}
	case *all:
		dir := *out
		if dir == "" {
			dir = "."
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		for _, id := range experiments.IDs() {
			if err := runOne(id, opts, filepath.Join(dir, "fig"+id+".tsv")); err != nil {
				fatal(fmt.Errorf("figure %s: %w", id, err))
			}
		}
	case *fig != "":
		if err := runOne(*fig, opts, *out); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	printCacheStats(cache, st)
}

// runScenario parses and executes one -scenario grid. Flag values apply as
// defaults; runs/seed/eps inside the grid line win.
func runScenario(line string, runs int, seed int64, eps float64, cache *scenario.Cache, outPath string, jsonOut, warm bool) error {
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true, WarmStart: warm}
	start := time.Now()
	def := service.Defaults{Runs: runs, Seed: seed, Epsilon: eps}
	err := writeOut(outPath, func(w io.Writer) error {
		if jsonOut {
			// The service's evaluation path and canonical encoding: the
			// emitted bytes equal a `topobench serve` response for the
			// same grid.
			resp, err := service.EvalGrid(context.Background(), eng, line, def, nil)
			if err != nil {
				return err
			}
			body, err := resp.MarshalCanonical()
			if err != nil {
				return err
			}
			_, err = w.Write(body)
			return err
		}
		grid, err := scenario.ParseGrid(line)
		if err != nil {
			return err
		}
		def.Apply(&grid)
		return grid.WriteTSV(eng, w)
	})
	if err != nil {
		return err
	}
	logger.Info("scenario done", "elapsed", time.Since(start).Round(time.Millisecond))
	if warm {
		logStats("warm-start stats", eng.WarmStats().Metrics)
	}
	return nil
}

func runOne(id string, opts experiments.Options, outPath string) error {
	runner := experiments.Registry(id)
	if runner == nil {
		return fmt.Errorf("unknown figure %q (use -list)", id)
	}
	start := time.Now()
	figure, err := runner(opts)
	if err != nil {
		return err
	}
	logger.Info("figure done", "figure", id, "elapsed", time.Since(start).Round(time.Millisecond))
	return writeOut(outPath, figure.TSV)
}

// writeOut runs write against the file at path, created or truncated, or
// against stdout when path is empty. It returns write's error, else the
// file's Close error, so a write that only fails on close (a full disk)
// does not exit 0 over a short file.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topobench:", err)
	os.Exit(1)
}
