package service

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
)

// Route classes split the request-latency histogram so dataplane
// latency (eval) is not blended with control-plane traffic (result
// fetches, job polls, everything else) in one distribution.
const (
	routeEval = iota
	routeResult
	routeJobs
	routeOther
	numRoutes
)

// routeNames are the `route` label values, indexed by route class.
var routeNames = [numRoutes]string{"eval", "result", "jobs", "other"}

// routeClass buckets a request path into its route class. Plain
// equality/prefix tests on the path — no parsing, no allocation — so
// classification is free on the warm dataplane.
func routeClass(path string) int {
	switch {
	case path == "/v1/eval":
		return routeEval
	case strings.HasPrefix(path, "/v1/result/"):
		return routeResult
	case path == "/v1/jobs" || strings.HasPrefix(path, "/v1/jobs/"):
		return routeJobs
	}
	return routeOther
}

// reqHistBuckets are the topobench_request_seconds histogram's upper
// bounds, in seconds. The range spans byte-cache hits (tens of
// microseconds) through cold multi-point solves (seconds), with the
// conventional 1-2.5-5 spacing Prometheus tooling expects.
var reqHistBuckets = [...]float64{
	.00005, .0001, .00025, .0005, .001, .0025, .005, .01,
	.025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// reqHist is a fixed-bucket request-latency histogram. observe is two
// atomic adds and a short linear scan — no locks, no allocations — so it
// sits on the dataplane without disturbing the zero-alloc budget.
type reqHist struct {
	counts [len(reqHistBuckets) + 1]atomic.Int64 // +1: the +Inf bucket
	nanos  atomic.Int64
}

func (h *reqHist) observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for i < len(reqHistBuckets) && sec > reqHistBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.nanos.Add(int64(d))
}

// render writes one route's series of the histogram in Prometheus text
// exposition format: cumulative le-labeled buckets, _sum, and _count,
// all carrying the route label (le last, the conventional order).
func (h *reqHist) render(w io.Writer, name, route string) {
	var cum int64
	for i, le := range reqHistBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{route=%q,le=\"%g\"} %d\n", name, route, le, cum)
	}
	cum += h.counts[len(reqHistBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{route=%q,le=\"+Inf\"} %d\n", name, route, cum)
	fmt.Fprintf(w, "%s_sum{route=%q} %g\n", name, route, float64(h.nanos.Load())/1e9)
	fmt.Fprintf(w, "%s_count{route=%q} %d\n", name, route, cum)
}

// renderRouteHists writes the whole request-latency family: one
// HELP/TYPE pair, then every route class's series.
func renderRouteHists(w io.Writer, hs *[numRoutes]reqHist) {
	const name = "topobench_request_seconds"
	fmt.Fprintf(w, "# HELP %s Request wall-clock latency, split by route class.\n", name)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for rt := range hs {
		hs[rt].render(w, name, routeNames[rt])
	}
}
