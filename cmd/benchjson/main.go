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
// The snapshot covers the flow solver (scale, epsilon, repair-vs-rebuild,
// and phase-parallel worker-scaling ablations),
// the incremental-evaluation path (SolverWarmStart/{ladder,expand}: the
// same delta-shaped points solved cold vs warm-started from the parent's
// stored witness; the ladder's ≥3× cold/warm speedup is enforced by the
// run itself, baseline or not), the scenario engine's solve cache (cold
// vs warm repeated-instance sweep), the persistent result store (cold process vs warm restart over
// a primed store directory), the remote store client (a Load round trip
// against a warm peer, clean vs through the chaos injector), the
// bisection-bandwidth estimator, two representative figure runners in
// quick mode (one grid-heavy, one decomposition-heavy), and the serve
// dataplane: ServeEvalWarm (one warm POST /v1/eval through the handler
// stack — the response-byte-cache hit path, allocs/op and all) plus
// ServeLoad/{warm,mixed}/{p50,p99} from the deterministic open-loop load
// generator (internal/loadgen) against an in-process daemon.
//
// With -baseline, the fresh snapshot is compared entry-by-entry against a
// committed earlier snapshot; -gate turns selected comparisons into hard
// failures, e.g. -gate "SolverScale/n=80=25" exits non-zero if that
// benchmark's ns/op — or, when the baseline recorded allocations, its
// allocs/op — regressed more than 25% — the CI perf gate.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/loadgen"
	"repro/internal/maxflow"
	"repro/internal/mcf"
	"repro/internal/remotestore"
	"repro/internal/rrg"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/traffic"
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

	snap := Snapshot{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	add := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		e := Entry{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Seconds:     r.T.Seconds(),
		}
		snap.Entries = append(snap.Entries, e)
		fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %10d allocs/op\n", name, e.NsPerOp, e.AllocsPerOp)
	}

	for _, n := range []int{20, 40, 80} {
		n := n
		add(fmt.Sprintf("SolverScale/n=%d", n), func(b *testing.B) {
			benchSolve(b, n, 10, 5, 0.1)
		})
	}
	for _, eps := range []float64{0.2, 0.1, 0.05} {
		eps := eps
		add(fmt.Sprintf("SolverEpsilon/eps=%v", eps), func(b *testing.B) {
			benchSolve(b, 40, 10, 5, eps)
		})
	}
	for _, mode := range []string{"repair", "rebuild"} {
		mode := mode
		add("SolverRepair/"+mode, func(b *testing.B) {
			benchRepair(b, 400, 6, mode == "repair")
		})
	}
	for _, mode := range []string{"cold", "warm"} {
		mode := mode
		add("ScenarioCache/"+mode, func(b *testing.B) {
			benchScenarioCache(b, mode == "warm")
		})
	}
	for _, mode := range []string{"cold", "warm"} {
		mode := mode
		add("StoreColdWarm/"+mode, func(b *testing.B) {
			benchStoreColdWarm(b, mode == "warm")
		})
	}
	for _, mode := range []string{"clean", "faulty"} {
		mode := mode
		add("RemoteStore/"+mode, func(b *testing.B) {
			benchRemoteStore(b, mode == "faulty")
		})
	}
	// Incremental what-if evaluation: the same delta-shaped points solved
	// cold vs warm-started from the parent's witness. The ladder ratio is
	// the PR 9 acceptance number, enforced right here — a benchjson run
	// where warm starts stop paying fails, baseline or not.
	for _, c := range []struct {
		name string
		pts  []scenario.Point
		min  float64 // enforced cold/warm speedup (0: report only)
	}{
		{"ladder", warmLadderPoints(), 3},
		{"expand", warmExpandPoints(), 0},
	} {
		c := c
		add("SolverWarmStart/"+c.name+"/cold", func(b *testing.B) {
			benchWarmStart(b, c.pts, false)
		})
		coldNs := snap.Entries[len(snap.Entries)-1].NsPerOp
		add("SolverWarmStart/"+c.name+"/warm", func(b *testing.B) {
			benchWarmStart(b, c.pts, true)
		})
		warmNs := snap.Entries[len(snap.Entries)-1].NsPerOp
		ratio := float64(coldNs) / float64(warmNs)
		fmt.Fprintf(os.Stderr, "%-28s %12.2fx cold/warm\n", "SolverWarmStart/"+c.name, ratio)
		if c.min > 0 && ratio < c.min {
			fatal(fmt.Errorf("SolverWarmStart/%s: warm start only %.2fx faster than cold (acceptance floor %.0fx)",
				c.name, ratio, c.min))
		}
	}
	for _, w := range []int{1, 2, 4} {
		w := w
		add(fmt.Sprintf("SolverPhasePar/workers=%d", w), func(b *testing.B) {
			// Widen the process semaphore so the requested worker count can
			// actually fan out; results are byte-identical either way.
			runner.SetMaxInFlight(w)
			defer runner.SetMaxInFlight(0)
			benchSolveWorkers(b, 80, 10, 5, 0.1, w)
		})
	}
	add("BisectionBandwidth/n=200", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		g, err := rrg.Regular(rng, 200, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			maxflow.BisectionBandwidth(g, 4)
		}
	})
	for _, id := range []string{"2a", "9a"} {
		id := id
		add("Fig"+id+"/quick", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Registry[id](experiments.Options{Quick: true, Runs: 2, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	add("ServeEvalWarm", benchServeEvalWarm)
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
		if err := compare(*baseline, &snap, *gate); err != nil {
			fatal(err)
		}
	}
}

// compare prints per-entry deltas against a baseline snapshot and enforces
// the -gate regression limits.
func compare(baselinePath string, snap *Snapshot, gates string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Snapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
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
	fmt.Fprintf(os.Stderr, "\nvs baseline %s (%s):\n", baselinePath, base.Date)
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

func benchSolve(b *testing.B, n, r, sps int, eps float64) {
	benchSolveWorkers(b, n, r, sps, eps, 0)
}

// benchScenarioCache mirrors BenchmarkScenarioCache: a repeated-instance
// degree sweep through the scenario engine, cold vs against a primed
// content-addressed cache.
func benchScenarioCache(b *testing.B, warm bool) {
	grid, err := scenario.ParseGrid("topo=rrg:n=40,sps=5 traffic=permutation eval=mcf sweep=deg:6..14:4 runs=2 eps=0.12 seed=1")
	if err != nil {
		b.Fatal(err)
	}
	if warm {
		e := &scenario.Engine{Parallel: 1, Cache: scenario.NewCache()}
		if _, _, err := grid.Run(e); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := grid.Run(e); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	for i := 0; i < b.N; i++ {
		e := &scenario.Engine{Parallel: 1}
		if _, _, err := grid.Run(e); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStoreColdWarm measures the persistent store's cross-process
// restart win on the ScenarioCache sweep: "cold" is a fresh process with
// an empty store (solve everything, write entries), "warm" is a fresh
// process — new Cache, new store handle — over a primed store directory
// (answer everything from disk). The warm/cold ratio is the PR 5
// acceptance number.
func benchStoreColdWarm(b *testing.B, warm bool) {
	grid, err := scenario.ParseGrid("topo=rrg:n=40,sps=5 traffic=permutation eval=mcf sweep=deg:6..14:4 runs=2 eps=0.12 seed=1")
	if err != nil {
		b.Fatal(err)
	}
	runGrid := func(dir string) {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		cache := scenario.NewCache()
		cache.SetBackend(st)
		e := &scenario.Engine{Parallel: 1, Cache: cache}
		if _, _, err := grid.Run(e); err != nil {
			b.Fatal(err)
		}
	}
	if warm {
		dir, err := os.MkdirTemp("", "storebench")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		runGrid(dir) // prime the store
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runGrid(dir) // fresh cache + fresh handle: a restarted process
		}
		return
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "storebench")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		runGrid(dir)
		b.StopTimer()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

// benchRemoteStore mirrors BenchmarkRemoteStore: one remote Load round
// trip against a warm in-memory peer, over a healthy transport ("clean")
// or through the chaos injector at the CI smoke's rates ("faulty") — the
// faulty/clean ratio is what fault tolerance costs on the hit path.
func benchRemoteStore(b *testing.B, faulty bool) {
	var mu sync.Mutex
	data := map[string][]byte{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		addr := strings.TrimPrefix(r.URL.Path, "/v1/result/")
		switch r.Method {
		case http.MethodGet:
			mu.Lock()
			body, ok := data[addr]
			mu.Unlock()
			if !ok {
				http.Error(w, "not found", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", remotestore.ContentType)
			w.Write(body)
		case http.MethodPut:
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			data[addr] = body
			mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method", http.StatusMethodNotAllowed)
		}
	}))
	defer hs.Close()
	opt := remotestore.Options{
		BaseURL: hs.URL,
		// Microsecond backoff: measure the machinery, not the waits.
		BackoffBase:     time.Microsecond,
		BackoffMax:      10 * time.Microsecond,
		BreakerCooldown: time.Millisecond,
	}
	if faulty {
		fcfg, err := faultinject.ParseSpec("seed=11,error=0.2,corrupt=0.05")
		if err != nil {
			b.Fatal(err)
		}
		opt.Transport = faultinject.NewTransport(nil, fcfg)
	}
	c := remotestore.New(opt)
	key := "bench-point"
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	if err := c.Save(key, vals); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Load(key)
	}
}

// warmLadderPoints builds the incremental-evaluation failure ladder: the
// PR 4 sweep instance (rrg n=40 deg=10 sps=5, permutation, mcf, eps=0.12,
// seed=1) degraded at frac=0.05..0.2. All rungs share one seed, hence one
// frac=0 parent (the repo's bench_test.go keeps the same points).
func warmLadderPoints() []scenario.Point {
	topoSpec, err := scenario.ParseTopology("rrg:n=40,sps=5")
	if err != nil {
		fatal(err)
	}
	tr, err := scenario.ParseTraffic("permutation")
	if err != nil {
		fatal(err)
	}
	var pts []scenario.Point
	for _, frac := range []float64{0.05, 0.1, 0.15, 0.2} {
		inner, err := scenario.ParseEvaluator("mcf")
		if err != nil {
			fatal(err)
		}
		pts = append(pts, scenario.Point{
			Topo: topoSpec, Traffic: tr,
			Eval: scenario.Failures{Frac: frac, Inner: inner},
			Seed: 1, Runs: 2, Epsilon: 0.12,
		})
	}
	return pts
}

// warmExpandPoints is the expansion-step variant: one growth step on the
// same instance, whose parent is the unexpanded base fabric.
func warmExpandPoints() []scenario.Point {
	topoSpec, err := scenario.ParseTopology("expand:n=40,deg=10,sps=5,steps=1")
	if err != nil {
		fatal(err)
	}
	tr, err := scenario.ParseTraffic("permutation")
	if err != nil {
		fatal(err)
	}
	ev, err := scenario.ParseEvaluator("mcf")
	if err != nil {
		fatal(err)
	}
	return []scenario.Point{{
		Topo: topoSpec, Traffic: tr, Eval: ev,
		Seed: 1, Runs: 2, Epsilon: 0.12,
	}}
}

// benchWarmStart mirrors the repo's BenchmarkSolverWarmStart: cold solves
// the points from scratch; warm primes the parents' witnesses once
// outside the timer, then each iteration injects ONLY the witnesses into
// a fresh cache — so a warm op is witness mapping + seeded solve +
// flowcheck certification, never a result-cache hit — and every run must
// actually have warm-started.
func benchWarmStart(b *testing.B, pts []scenario.Point, warm bool) {
	b.ReportAllocs()
	if !warm {
		for i := 0; i < b.N; i++ {
			eng := &scenario.Engine{Parallel: 1}
			if _, err := eng.MeasureRuns(pts); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	prime := scenario.NewCache()
	peng := &scenario.Engine{Parallel: 1, Cache: prime, WarmStart: true}
	wit := map[string][]float64{}
	runsTotal := 0
	for _, p := range pts {
		runsTotal += p.Runs
		pp, ok := scenario.ParentPoint(p)
		if !ok {
			b.Fatalf("point %s has no parent", p.Key())
		}
		if _, err := peng.MeasureRuns([]scenario.Point{pp}); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < p.Runs; i++ {
			k := scenario.WitnessKey(pp.Key(), i)
			w, ok := prime.Get(k)
			if !ok {
				b.Fatalf("parent solve exported no witness under %s", k)
			}
			wit[k] = w
		}
	}
	b.ResetTimer()
	var last *scenario.Engine
	for i := 0; i < b.N; i++ {
		cache := scenario.NewCache()
		for k, v := range wit {
			cache.Put(k, v)
		}
		eng := &scenario.Engine{Parallel: 1, Cache: cache, WarmStart: true}
		if _, err := eng.MeasureRuns(pts); err != nil {
			b.Fatal(err)
		}
		last = eng
	}
	b.StopTimer()
	if ws := last.WarmStats(); ws.Starts != int64(runsTotal) {
		b.Fatalf("warm iteration did not warm-start every run: %+v (want %d starts)", ws, runsTotal)
	}
}

func benchSolveWorkers(b *testing.B, n, r, sps int, eps float64, workers int) {
	rng := rand.New(rand.NewSource(1))
	g, err := rrg.Regular(rng, n, r)
	if err != nil {
		b.Fatal(err)
	}
	for u := 0; u < n; u++ {
		g.SetServers(u, sps)
	}
	tm := traffic.Permutation(rng, traffic.HostsOf(g))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcf.Solve(g, tm.Flows, mcf.Options{Epsilon: eps, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRepair mirrors the repository's BenchmarkSolverRepair: per
// iteration, one cross-traffic batch of arc length growths, then bring the
// shortest-path tree current by incremental repair or full rebuild.
func benchRepair(b *testing.B, n, r int, repair bool) {
	g, err := rrg.Regular(rand.New(rand.NewSource(1)), n, r)
	if err != nil {
		b.Fatal(err)
	}
	m := g.NumArcs()
	lens := make([]float64, m)
	rng := rand.New(rand.NewSource(2))
	for a := range lens {
		lens[a] = 1 + 1e-3*rng.Float64()
	}
	d := g.NewDijkstraScratch()
	d.Run(0, lens, nil)
	changed := make([]int32, 0, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		changed = changed[:0]
		for k := 0; k < 12; k++ {
			a := int32(rng.Intn(m))
			lens[a] *= 1 + 1e-9
			changed = append(changed, a)
		}
		if repair {
			if !d.Repair(lens, changed) {
				b.Fatal("repair refused")
			}
		} else {
			d.Run(0, lens, nil)
		}
	}
}

// replayBody is a rearm-able request body: Seek(0) readies it for the
// next iteration without allocating a reader.
type replayBody struct{ *bytes.Reader }

func (replayBody) Close() error { return nil }

// nullRW discards the response body and reuses its header map, so the
// direct-handler benchmark charges the service's own work and nothing
// else.
type nullRW struct {
	h      http.Header
	status int
}

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullRW) WriteHeader(s int)           { w.status = s }
func (w *nullRW) reset() {
	w.status = 0
	for k := range w.h {
		delete(w.h, k)
	}
}

// serveGrid is the load benchmarks' unit of work: a single-point aspl
// grid whose cost is dominated by the serve path once warm.
func serveGrid(seed int) string {
	return fmt.Sprintf("topo=rrg:n=8,deg=3,sps=1 traffic=permutation eval=aspl runs=1 seed=%d", seed)
}

// benchServeEvalWarm mirrors internal/service's BenchmarkServeEvalWarm:
// one warm POST /v1/eval through the full handler stack against a null
// writer — the response-byte-cache hit path, whose allocs/op the CI gate
// pins.
func benchServeEvalWarm(b *testing.B) {
	cache := scenario.NewCache()
	eng := &scenario.Engine{Parallel: 1, Cache: cache, SkipInfeasible: true}
	svc := service.New(service.Config{Engine: eng, Cache: cache, MaxJobs: 4})
	h := svc.Handler()
	payload, err := json.Marshal(struct {
		Grid string `json:"grid"`
	}{serveGrid(1)})
	if err != nil {
		b.Fatal(err)
	}
	body := &replayBody{bytes.NewReader(payload)}
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", body)
	w := &nullRW{h: http.Header{}}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		b.Fatalf("prime request: status %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Seek(0, 0)
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
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
		universe[i] = serveGrid(i + 1)
	}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:  hs.URL,
		Universe: universe,
		Rate:     400,
		Duration: dur,
		Conns:    8,
		Seed:     1,
		MissFrac: missFrac,
		MissGrid: func(i int) string { return serveGrid(1_000_000 + i) },
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
