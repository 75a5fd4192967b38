package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/remotestore"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/trace"
)

// runServe is the `topobench serve` subcommand: the scenario engine as a
// long-running HTTP service (see internal/service for the API). The solve
// cache holds one tier: memory by default, or the durable tiers below in
// its place. With -cache-dir, results persist across restarts — a warm
// daemon answers previously-solved grids from disk without solving
// anything, and keeps no in-memory copy of them. With -peer, the replica
// joins a fleet: misses consult the peer's result store
// (retries/backoff/circuit breaker, see internal/remotestore), hits are
// promoted to local disk when there is one, and solves are published
// back — so a grid solved anywhere is solved everywhere. -claim-lease
// additionally coordinates cold solves through crash-safe claim leases on
// a shared -cache-dir, so replicas sharing a pool solve each point once
// fleet-wide.
func runServe(args []string) {
	fs := flag.NewFlagSet("topobench serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address")
		cacheDir   = fs.String("cache-dir", "", "persistent result-store directory (empty: memory-only)")
		workers    = fs.Int("workers", 0, "bound on total in-flight evaluation work (0 = GOMAXPROCS)")
		jobs       = fs.Int("jobs", 0, "max eval requests in flight before 429 backpressure (0 = 2*GOMAXPROCS)")
		maxBytes   = fs.Int64("store-max-bytes", 0, "LRU-prune the store to this byte budget after each eval (0 = unbounded)")
		peer       = fs.String("peer", "", "peer replica base URL to share results with (e.g. http://10.0.0.2:8080)")
		faultSpec  = fs.String("fault-inject", "", "inject faults into peer traffic, e.g. \"seed=7,error=0.2,corrupt=0.05\" (testing)")
		lease      = fs.Duration("claim-lease", 0, "claim-lease TTL for fleet-wide solve dedup on a shared -cache-dir (0 = off)")
		reqTimeout = fs.Duration("request-timeout", 0, "per-evaluation wall-clock bound; expiry answers 504 (0 = unbounded)")
		jobTimeout = fs.Duration("job-timeout", 0, "per-async-job evaluation wall-clock bound (0 = unbounded)")
		jobRetain  = fs.Duration("job-retain", 24*time.Hour, "how long finished async-job records are kept; expired ones are dropped at startup and before each job submission")
		jobQueue   = fs.Int("job-queue", 0, "max async jobs resident before submissions get 429 (0 = 16*jobs)")
		respBytes  = fs.Int64("resp-cache-bytes", 0, "response-byte cache budget (0 = 64 MiB default, negative = disabled)")
		pprofOn    = fs.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/ (off by default)")
		warmStart  = fs.Bool("warm-start", false, "seed delta-shaped points (failure ladders, expansion steps) from their parent's stored witness; every warm solve is flowcheck-certified")
		sample     = fs.Float64("trace-sample", 0.001, "fraction of requests traced end to end into /debug/traces (0 disables head sampling; slow capture still applies)")
		traceSlow  = fs.Duration("trace-slow", 250*time.Millisecond, "requests at or over this duration are always captured and logged (0 disables)")
		traceBuf   = fs.Int("trace-buffer", 0, "completed traces retained in the /debug/traces ring (0 = 256)")
		logFormat  = logFormatFlag(fs)
	)
	fs.Parse(args)
	applyLogFormat(*logFormat)

	if err := validateServeFlags(*cacheDir, *lease); err != nil {
		fatal(err)
	}
	runner.SetMaxInFlight(*workers)
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
	var remote *remotestore.Client
	if *peer != "" {
		ropt := remotestore.Options{BaseURL: *peer}
		if *faultSpec != "" {
			fcfg, err := faultinject.ParseSpec(*faultSpec)
			if err != nil {
				fatal(err)
			}
			ropt.Transport = faultinject.NewTransport(nil, fcfg)
			logger.Warn("FAULT INJECTION active on peer traffic", "spec", *faultSpec)
		}
		remote = remotestore.New(ropt)
	}
	var tiered *store.Tiered
	switch {
	case st != nil && (remote != nil || *lease > 0):
		// Tiered backend: disk, then peer (with write-back promotion), with
		// optional claim-lease solve dedup across replicas sharing the dir.
		var rb store.Remote
		if remote != nil {
			rb = remote
		}
		tiered = store.NewTiered(st, rb, store.TieredOptions{LeaseTTL: *lease})
		cache.SetBackend(tiered)
	case remote != nil:
		// No local disk: the peer is the cache's only tier, so repeated
		// points are read back from it.
		cache.SetBackend(remote)
	}
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true, WarmStart: *warmStart}
	var tracer *trace.Tracer
	if *sample > 0 || *traceSlow > 0 {
		tracer = trace.New(trace.Options{Sample: *sample, Slow: *traceSlow, Buffer: *traceBuf})
	}
	svc := service.New(service.Config{
		Engine: eng, Cache: cache, Store: st,
		MaxJobs: *jobs, StoreMaxBytes: *maxBytes,
		Remote: remote, Tiered: tiered,
		RequestTimeout:    *reqTimeout,
		JobTimeout:        *jobTimeout,
		JobRetain:         *jobRetain,
		MaxQueuedJobs:     *jobQueue,
		RespCacheMaxBytes: *respBytes,
		Tracer:            tracer,
		Logger:            logger,
	})
	if n := svc.RecoverJobs(); n > 0 {
		logger.Info("recovered async jobs", "jobs", n, "dir", *cacheDir)
	}
	handler := svc.Handler()
	if *pprofOn {
		// pprof rides a wrapper mux so the profiling handlers stay entirely
		// out of the service's routing (and its dataplane) unless asked for.
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
		logger.Info("pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM, drain in-flight
	// requests (bounded), then report what the process served.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			srv.Close()
		}
	}()

	if st != nil {
		ss := st.Stats()
		logger.Info("store opened", "dir", *cacheDir, "entries", ss.Entries, "bytes", ss.Bytes)
	}
	if tracer != nil {
		logger.Info("tracing enabled", "sample", *sample, "slow", *traceSlow)
	}
	logger.Info("listening", "addr", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	<-drained
	printCacheStats(cache, st)
	if tiered != nil {
		logStats("tiered stats", tiered.Stats().Metrics)
	}
	if remote != nil {
		logStats("remote stats", remote.Stats().Metrics, "peer", remote.BaseURL())
	}
}

// validateServeFlags rejects flag combinations that would silently
// disable what the operator asked for. -claim-lease coordinates solves
// through lease files under -cache-dir; without a cache dir there is
// nowhere to put them, and ignoring the flag (the old behavior) left
// fleets believing they had solve dedup when every replica solved alone.
func validateServeFlags(cacheDir string, lease time.Duration) error {
	if lease > 0 && cacheDir == "" {
		return fmt.Errorf("-claim-lease requires -cache-dir: claim leases live in the result-store directory")
	}
	return nil
}

// printCacheStats reports the solve cache and, when there is one, the
// store's activity — the batch-mode exit summary and the server's
// shutdown summary.
func printCacheStats(c *scenario.Cache, st *store.Store) {
	logStats("cache stats", c.Stats().Metrics)
	if st != nil {
		logStats("store stats", st.Stats().Metrics)
	}
}
