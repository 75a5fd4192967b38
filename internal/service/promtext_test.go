package service

import (
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/remotestore"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/trace"
)

// This file is a minimal Prometheus text-exposition parser and the
// validity test built on it: every sample /metrics emits must belong to
// a family with HELP and TYPE declared first, carry a legal metric
// name, and — for histograms — have monotone bucket counts whose +Inf
// bucket equals the family's _count. Substring checks elsewhere pin
// individual metrics; this test pins the format itself, so a scrape by
// a real Prometheus never half-works.

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// promSample is one parsed sample line.
type promSample struct {
	name   string            // full name including _bucket/_sum/_count
	labels map[string]string // nil when the line has no label set
	value  float64
	line   int
}

// promFamily is the declared metadata for one metric family.
type promFamily struct {
	help, typ string
	declared  int // line of the first declaration
}

// parsePromText parses the exposition text, failing the test on any
// line that is neither a comment, a blank, nor a well-formed sample.
func parsePromText(t *testing.T, text string) (map[string]*promFamily, []promSample) {
	t.Helper()
	families := make(map[string]*promFamily)
	var samples []promSample
	for i, line := range strings.Split(text, "\n") {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln, line)
			}
			name := fields[2]
			if !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: illegal metric name %q", ln, name)
			}
			f := families[name]
			if f == nil {
				f = &promFamily{declared: ln}
				families[name] = f
			}
			switch fields[1] {
			case "HELP":
				if f.help != "" {
					t.Fatalf("line %d: duplicate HELP for %s", ln, name)
				}
				f.help = fields[3]
			case "TYPE":
				if f.typ != "" {
					t.Fatalf("line %d: duplicate TYPE for %s", ln, name)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("line %d: unknown TYPE %q for %s", ln, fields[3], name)
				}
				f.typ = fields[3]
			}
			continue
		}
		name, labels, val := parsePromSample(t, ln, line)
		samples = append(samples, promSample{name: name, labels: labels, value: val, line: ln})
	}
	return families, samples
}

// parsePromSample splits `name{l1="v1",l2="v2"} value` (labels optional).
func parsePromSample(t *testing.T, ln int, line string) (string, map[string]string, float64) {
	t.Helper()
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd < 0 {
		t.Fatalf("line %d: no value separator in %q", ln, line)
	}
	name := line[:nameEnd]
	if !metricNameRe.MatchString(name) {
		t.Fatalf("line %d: illegal metric name %q", ln, name)
	}
	rest := line[nameEnd:]
	var labels map[string]string
	if rest[0] == '{' {
		close := strings.Index(rest, "}")
		if close < 0 {
			t.Fatalf("line %d: unterminated label set in %q", ln, line)
		}
		labels = make(map[string]string)
		for _, pair := range strings.Split(rest[1:close], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("line %d: malformed label %q in %q", ln, pair, line)
			}
			labels[k] = v[1 : len(v)-1]
		}
		rest = rest[close+1:]
	}
	valStr := strings.TrimSpace(rest)
	val, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		t.Fatalf("line %d: bad sample value %q: %v", ln, valStr, err)
	}
	return name, labels, val
}

// familyOf maps a sample name to its declared family: histogram series
// drop the _bucket/_sum/_count suffix.
func familyOf(name string, families map[string]*promFamily) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if f := families[base]; f != nil && f.typ == "histogram" {
				return base
			}
		}
	}
	return name
}

// newWiredServer wires a server with every component /metrics reads: a
// warm-start engine over a cache whose backend is a claim-leased Tiered
// store with a remotestore peer, plus a tracer sampling every request.
func newWiredServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, peer := newTestServer(t, t.TempDir(), 0)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remote := remotestore.New(remotestore.Options{BaseURL: peer.URL, Timeout: 5 * time.Second})
	tiered := store.NewTiered(st, remote, store.TieredOptions{LeaseTTL: 10 * time.Second})
	cache := scenario.NewCache()
	cache.SetBackend(tiered)
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true, WarmStart: true}
	srv := New(Config{Engine: eng, Cache: cache, Store: st, MaxJobs: 4,
		Remote: remote, Tiered: tiered, Tracer: trace.New(trace.Options{Sample: 1})})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// TestMetricsPrometheusWellFormed scrapes a server wired with every
// component after real traffic and validates the whole exposition.
func TestMetricsPrometheusWellFormed(t *testing.T) {
	hs := newWiredServer(t)
	if status, _, _ := postEvalTraced(t, hs.URL, testGridQuick); status != http.StatusOK {
		t.Fatal("eval failed")
	}
	postEvalTraced(t, hs.URL, testGridQuick) // warm hit, so cache counters move
	get(t, hs.URL+"/healthz")

	status, body := get(t, hs.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: %d", status)
	}
	families, samples := parsePromText(t, string(body))
	if len(samples) == 0 {
		t.Fatal("no samples parsed")
	}

	// Every component's families are present: 69 single-sample families
	// plus the request-latency histogram, including each family CI's
	// smokes grep for and perfbench scrapes.
	if len(families) != 70 {
		t.Errorf("%d families, want 70", len(families))
	}
	for _, name := range []string{
		"cache_store_hits_total", "cache_evictions_total", "store_writes_total", "store_parent_links_total",
		"warm_attempts_total", "warm_starts_total", "warm_cert_fallbacks_total", "warm_parent_hits_total",
		"remote_failures_total", "jobs_recovered_total", "traces_sampled_total",
		"response_bytes_cache_hits_total", "response_bytes_cache_misses_total",
	} {
		if families["topobench_"+name] == nil {
			t.Errorf("family topobench_%s missing", name)
		}
	}

	// Every sample's family is fully declared, before the sample.
	for _, s := range samples {
		fam := familyOf(s.name, families)
		f := families[fam]
		if f == nil {
			t.Errorf("line %d: sample %s has no HELP/TYPE declaration", s.line, s.name)
			continue
		}
		if f.help == "" || f.typ == "" {
			t.Errorf("family %s: missing %s", fam, map[bool]string{true: "HELP", false: "TYPE"}[f.help == ""])
		}
		if f.declared > s.line {
			t.Errorf("line %d: sample %s precedes its declaration at line %d", s.line, s.name, f.declared)
		}
		if f.typ == "counter" && s.value < 0 {
			t.Errorf("line %d: counter %s is negative: %g", s.line, s.name, s.value)
		}
	}
	// No family is declared and then never sampled.
	sampled := make(map[string]bool)
	for _, s := range samples {
		sampled[familyOf(s.name, families)] = true
	}
	for fam := range families {
		if !sampled[fam] {
			t.Errorf("family %s declared but has no samples", fam)
		}
	}

	// Histogram shape: per label set, buckets monotone over increasing le,
	// +Inf present and equal to _count.
	type series struct {
		le     []float64
		counts map[float64]float64
		sum    float64
		count  float64
		hasCnt bool
	}
	hists := make(map[string]*series) // keyed by family + label signature (minus le)
	sigOf := func(fam string, labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		sig := fam
		for _, k := range keys {
			sig += "|" + k + "=" + labels[k]
		}
		return sig
	}
	for _, s := range samples {
		fam := familyOf(s.name, families)
		if f := families[fam]; f == nil || f.typ != "histogram" {
			continue
		}
		sig := sigOf(fam, s.labels)
		h := hists[sig]
		if h == nil {
			h = &series{counts: make(map[float64]float64)}
			hists[sig] = h
		}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			leStr, ok := s.labels["le"]
			if !ok {
				t.Errorf("line %d: %s bucket without le label", s.line, s.name)
				continue
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Errorf("line %d: bad le %q", s.line, leStr)
				continue
			}
			h.le = append(h.le, le)
			h.counts[le] = s.value
		case strings.HasSuffix(s.name, "_sum"):
			h.sum = s.value
		case strings.HasSuffix(s.name, "_count"):
			h.count, h.hasCnt = s.value, true
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histogram series parsed")
	}
	for sig, h := range hists {
		sort.Float64s(h.le)
		prev := -1.0
		for i, le := range h.le {
			if i > 0 && h.counts[le] < prev {
				t.Errorf("%s: bucket le=%g count %g < previous %g", sig, le, h.counts[le], prev)
			}
			prev = h.counts[le]
		}
		inf, ok := h.counts[math.Inf(1)]
		if !ok {
			t.Errorf("%s: no +Inf bucket", sig)
			continue
		}
		if !h.hasCnt {
			t.Errorf("%s: no _count series", sig)
		} else if inf != h.count {
			t.Errorf("%s: +Inf bucket %g != _count %g", sig, inf, h.count)
		}
		if h.count > 0 && h.sum < 0 {
			t.Errorf("%s: negative _sum %g", sig, h.sum)
		}
	}
}
