// Package loadgen is a deterministic open-loop load generator for the
// topobench evaluation service. It drives POST /v1/eval with a seeded,
// precomputed request schedule — zipf-popular keys from a warm universe
// mixed with a configurable fraction of never-seen grids — and reports
// throughput and latency percentiles.
//
// Two properties matter for a benchmark harness:
//
//   - Determinism: the entire arrival schedule (times, key choices, miss
//     placements) is derived from the seed before the first request is
//     sent, so two runs against the same server issue byte-identical
//     request sequences. Only the measured latencies differ.
//
//   - Open loop: requests are scheduled at fixed arrival times (rate
//     requests/second) regardless of how fast the server answers, and
//     latency is measured from the SCHEDULED arrival, not from the moment
//     a connection became free. A server that falls behind therefore
//     shows the queueing delay it actually inflicts — the coordinated-
//     omission-free number — instead of the flattering closed-loop one.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Universe holds the warm grid lines, most-popular first: request i
	// draws its grid by zipf rank over this slice.
	Universe []string
	// Rate is the open-loop arrival rate in requests/second.
	Rate float64
	// Duration is the measured window; Rate*Duration requests are
	// scheduled.
	Duration time.Duration
	// Conns bounds concurrent in-flight requests (worker goroutines, each
	// with its own keep-alive connection). Defaults to 8.
	Conns int
	// Seed feeds the RNG that fixes the whole schedule. Same seed, same
	// universe, same rate → identical request sequence.
	Seed int64
	// ZipfS shapes key popularity (rand.NewZipf's s > 1, with v = 1).
	// Zero defaults to 1.2.
	ZipfS float64
	// MissFrac in [0,1] is the fraction of requests redirected to fresh
	// never-seen grids produced by MissGrid. Zero → pure warm load.
	MissFrac float64
	// MissGrid returns the i-th distinct cold grid line. Required when
	// MissFrac > 0.
	MissGrid func(i int) string
	// Prime, when set, synchronously evaluates every universe grid once
	// before the measured window opens, so the warm mix measures the serve
	// path rather than first-touch solves.
	Prime bool
}

// Result is one run's outcome.
type Result struct {
	Requests int           `json:"requests"`
	Errors   int           `json:"errors"`
	Statuses map[int]int   `json:"statuses"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	RPS      float64       `json:"rps"`
	// Percentiles of open-loop latency: time from scheduled arrival to
	// response fully read.
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	// Slowest are the worst requests of the run — those at or above the
	// P99 latency — worst first, each carrying the trace id the server
	// echoed in X-Trace-Id (empty when the request was neither sampled
	// nor slow-captured server-side). This closes the loop between the
	// harness and GET /debug/traces: the tail's trace ids are right in
	// the report.
	Slowest []SlowRequest `json:"slowest,omitempty"`
}

// SlowRequest identifies one of the run's slowest requests.
type SlowRequest struct {
	Grid    string        `json:"grid"`
	Status  int           `json:"status"`
	Latency time.Duration `json:"latency_ns"`
	TraceID string        `json:"trace_id,omitempty"`
}

// slowTrack bounds how many candidate slow requests each worker retains;
// the merged candidates are filtered to >= P99 after the run.
const slowTrack = 8

// noteSlow keeps the top-slowTrack requests by latency: append while
// under the bound, then displace the current minimum.
func noteSlow(slow []SlowRequest, r SlowRequest) []SlowRequest {
	if len(slow) < slowTrack {
		return append(slow, r)
	}
	min := 0
	for i := 1; i < len(slow); i++ {
		if slow[i].Latency < slow[min].Latency {
			min = i
		}
	}
	if r.Latency > slow[min].Latency {
		slow[min] = r
	}
	return slow
}

type arrival struct {
	at   time.Duration
	grid string
}

// Run executes the configured load against the server and blocks until
// every scheduled request finished (or ctx is canceled — the partial
// result is still returned).
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.BaseURL == "" {
		return Result{}, fmt.Errorf("loadgen: BaseURL required")
	}
	if len(cfg.Universe) == 0 {
		return Result{}, fmt.Errorf("loadgen: empty universe")
	}
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return Result{}, fmt.Errorf("loadgen: rate and duration must be positive")
	}
	if cfg.MissFrac > 0 && cfg.MissGrid == nil {
		return Result{}, fmt.Errorf("loadgen: MissFrac > 0 needs MissGrid")
	}
	conns := cfg.Conns
	if conns <= 0 {
		conns = 8
	}
	zs := cfg.ZipfS
	if zs == 0 {
		zs = 1.2
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
	}}

	// The whole schedule is fixed up front: arrival times on an exact
	// 1/Rate grid, key ranks and miss placements drawn from the seeded RNG
	// in request order.
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, zs, 1, uint64(len(cfg.Universe)-1))
	n := int(cfg.Rate * cfg.Duration.Seconds())
	if n < 1 {
		n = 1
	}
	plan := make([]arrival, n)
	missN := 0
	for i := range plan {
		at := time.Duration(float64(i) / cfg.Rate * float64(time.Second))
		grid := cfg.Universe[zipf.Uint64()]
		if cfg.MissFrac > 0 && rng.Float64() < cfg.MissFrac {
			grid = cfg.MissGrid(missN)
			missN++
		}
		plan[i] = arrival{at: at, grid: grid}
	}

	if cfg.Prime {
		for _, grid := range cfg.Universe {
			status, _, err := post(ctx, client, cfg.BaseURL, grid)
			if err != nil {
				return Result{}, fmt.Errorf("loadgen: priming %q: %w", grid, err)
			}
			if status != http.StatusOK {
				return Result{}, fmt.Errorf("loadgen: priming %q: status %d", grid, status)
			}
		}
	}

	work := make(chan arrival, n)
	for _, a := range plan {
		work <- a
	}
	close(work)

	type shard struct {
		lat      []time.Duration
		statuses map[int]int
		errs     int
		slow     []SlowRequest
	}
	shards := make([]shard, conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.statuses = map[int]int{}
			for a := range work {
				due := t0.Add(a.at)
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				if ctx.Err() != nil {
					return
				}
				status, traceID, err := post(ctx, client, cfg.BaseURL, a.grid)
				if err != nil {
					sh.errs++
					continue
				}
				sh.statuses[status]++
				lat := time.Since(due)
				sh.lat = append(sh.lat, lat)
				sh.slow = noteSlow(sh.slow, SlowRequest{
					Grid: a.grid, Status: status, Latency: lat, TraceID: traceID})
			}
		}(&shards[w])
	}
	wg.Wait()
	elapsed := time.Since(t0)

	res := Result{Statuses: map[int]int{}, Elapsed: elapsed}
	var lat []time.Duration
	var slow []SlowRequest
	for _, sh := range shards {
		res.Errors += sh.errs
		for st, c := range sh.statuses {
			res.Statuses[st] += c
			res.Requests += c
		}
		lat = append(lat, sh.lat...)
		slow = append(slow, sh.slow...)
	}
	res.Requests += res.Errors
	if elapsed > 0 {
		res.RPS = float64(res.Requests) / elapsed.Seconds()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.P50 = percentile(lat, 0.50)
	res.P95 = percentile(lat, 0.95)
	res.P99 = percentile(lat, 0.99)
	// The tail report: every retained candidate at or above P99, worst
	// first, capped so a long run stays a short report.
	sort.Slice(slow, func(i, j int) bool { return slow[i].Latency > slow[j].Latency })
	for _, r := range slow {
		if r.Latency < res.P99 || len(res.Slowest) >= slowTrack {
			break
		}
		res.Slowest = append(res.Slowest, r)
	}
	return res, ctx.Err()
}

// post sends one eval request and drains the response; the body content
// is irrelevant to the generator — only the status, the completion time,
// and the X-Trace-Id the server echoed for sampled or slow-captured
// requests matter.
func post(ctx context.Context, client *http.Client, baseURL, grid string) (int, string, error) {
	body, err := json.Marshal(struct {
		Grid string `json:"grid"`
	}{grid})
	if err != nil {
		return 0, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/eval", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Trace-Id"), nil
}

// percentile returns the p-th percentile (nearest-rank) of sorted
// latencies, 0 for an empty set.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
