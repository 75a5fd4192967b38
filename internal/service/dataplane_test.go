package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/remotestore"
	"repro/internal/scenario"
	"repro/internal/store"
)

// newDataplaneServer is newTestServer with a configurable response-byte
// cache budget.
func newDataplaneServer(t *testing.T, dir string, respBytes int64) (*Server, *httptest.Server) {
	t.Helper()
	cache := scenario.NewCache()
	var st *store.Store
	if dir != "" {
		var err error
		st, err = store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache.SetBackend(st)
	}
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true}
	srv := New(Config{Engine: eng, Cache: cache, Store: st, MaxJobs: 4, RespCacheMaxBytes: respBytes})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// TestByteCacheHitByteIdentical is the tentpole invariant: a byte-cache
// hit returns bytes IDENTICAL to the cold marshal, and the second request
// for a grid is served from the cache (a counted hit), not re-marshaled.
func TestByteCacheHitByteIdentical(t *testing.T) {
	srv, hs := newDataplaneServer(t, t.TempDir(), 0)
	status, cold := postEval(t, hs.URL, testGridQuick)
	if status != http.StatusOK {
		t.Fatalf("cold eval: %d %s", status, cold)
	}
	status, warm := postEval(t, hs.URL, testGridQuick)
	if status != http.StatusOK {
		t.Fatalf("warm eval: %d", status)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("byte-cache hit differs from cold marshal:\ncold %q\nwarm %q", cold, warm)
	}
	if st := srv.resp.stats(); st.Hits < 1 {
		t.Fatalf("expected a byte-cache hit, stats %+v", st)
	}
	// Whitespace-normalized spellings of the same grid share the entry.
	status, sloppy := postEval(t, hs.URL, "  "+strings.Replace(testGridQuick, " ", "   ", 1)+" ")
	if status != http.StatusOK || !bytes.Equal(cold, sloppy) {
		t.Fatalf("normalized spelling missed the cache: %d", status)
	}
}

// TestByteCacheEvictionByteIdentity squeezes the cache to one entry: the
// evicted grid must re-populate with byte-identical content — eviction
// can cost a re-marshal, never a different (or partial) response.
func TestByteCacheEvictionByteIdentity(t *testing.T) {
	gridA := testGridQuick
	gridB := strings.Replace(testGridQuick, "seed=1", "seed=2", 1)
	_, cold := postEval(t, newOneShot(t, gridA), gridA)

	srv, hs := newDataplaneServer(t, t.TempDir(), int64(len(cold))+16)
	status, a1 := postEval(t, hs.URL, gridA)
	if status != http.StatusOK {
		t.Fatalf("eval A: %d", status)
	}
	if status, _ := postEval(t, hs.URL, gridB); status != http.StatusOK {
		t.Fatalf("eval B: %d", status)
	}
	status, a2 := postEval(t, hs.URL, gridA)
	if status != http.StatusOK {
		t.Fatalf("re-eval A: %d", status)
	}
	if !bytes.Equal(a1, a2) {
		t.Fatal("response for evicted grid changed after re-populate")
	}
	if st := srv.resp.stats(); st.Evictions == 0 {
		t.Fatalf("budget for one entry, two grids: expected evictions, stats %+v", st)
	}
}

// newOneShot spins a throwaway memory-only server just to learn a grid's
// canonical response size.
func newOneShot(t *testing.T, grid string) string {
	t.Helper()
	_, hs := newTestServer(t, "", 4)
	return hs.URL
}

func evalPointKey(t *testing.T, url, grid string) string {
	t.Helper()
	status, body := postEval(t, url, grid)
	if status != http.StatusOK {
		t.Fatalf("eval: %d %s", status, body)
	}
	var resp EvalResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) == 0 || resp.Points[0].Key == "" {
		t.Fatalf("no point key in response: %s", body)
	}
	return resp.Points[0].Key
}

func getWithHeaders(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestResult304NoStoreRead is the satellite regression test: a
// revalidation answered 304 must not touch the store at all — content
// addressing makes representations immutable, so a matching ETag is
// proof enough. Store hit/miss counters are the witness.
func TestResult304NoStoreRead(t *testing.T) {
	srv, hs := newDataplaneServer(t, t.TempDir(), 0)
	key := evalPointKey(t, hs.URL, testGridQuick)

	resp := getWithHeaders(t, hs.URL+"/v1/result/"+key, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	etag := resp.Header.Get("Etag")
	if etag == "" {
		t.Fatal("no ETag on result response")
	}
	resp.Body.Close()

	before := srv.cfg.Store.Stats()
	for _, inm := range []string{etag, "*", `W/` + etag, `"bogus", ` + etag} {
		resp := getWithHeaders(t, hs.URL+"/v1/result/"+key, map[string]string{"If-None-Match": inm})
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: got %d want 304", inm, resp.StatusCode)
		}
		if resp.Header.Get("Etag") != etag {
			t.Fatalf("304 lost the ETag: %q", resp.Header.Get("Etag"))
		}
		var buf [1]byte
		if n, _ := resp.Body.Read(buf[:]); n != 0 {
			t.Fatal("304 carried a body")
		}
	}
	after := srv.cfg.Store.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("304 touched the store: before %+v after %+v", before, after)
	}

	// A non-matching validator still serves the full body (and reads the
	// store again).
	resp = getWithHeaders(t, hs.URL+"/v1/result/"+key, map[string]string{"If-None-Match": `"nope"`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale validator: got %d want 200", resp.StatusCode)
	}
}

// TestResultHeaders: Content-Length and representation-specific ETags on
// both views, and raw TBRS bytes decoding to the same values as the JSON
// view.
func TestResultHeaders(t *testing.T) {
	_, hs := newDataplaneServer(t, t.TempDir(), 0)
	key := evalPointKey(t, hs.URL, testGridQuick)

	jr := getWithHeaders(t, hs.URL+"/v1/result/"+key, nil)
	jbody := readAll(t, jr)
	if cl := jr.Header.Get("Content-Length"); cl != itoa(len(jbody)) {
		t.Fatalf("json Content-Length %q, body %d bytes", cl, len(jbody))
	}
	jtag := jr.Header.Get("Etag")
	if !strings.HasPrefix(jtag, `"`+key+".j") {
		t.Fatalf("json ETag %q", jtag)
	}
	var stored struct {
		Values []float64 `json:"values"`
	}
	if err := json.Unmarshal(jbody, &stored); err != nil {
		t.Fatal(err)
	}

	tr := getWithHeaders(t, hs.URL+"/v1/result/"+key, map[string]string{"Accept": remotestore.ContentType})
	tbody := readAll(t, tr)
	if ct := tr.Header.Get("Content-Type"); ct != remotestore.ContentType {
		t.Fatalf("tbrs Content-Type %q", ct)
	}
	if cl := tr.Header.Get("Content-Length"); cl != itoa(len(tbody)) {
		t.Fatalf("tbrs Content-Length %q, body %d bytes", cl, len(tbody))
	}
	ttag := tr.Header.Get("Etag")
	if !strings.HasPrefix(ttag, `"`+key+".t") || ttag == jtag {
		t.Fatalf("tbrs ETag %q (json %q): representations must not share validators", ttag, jtag)
	}
	vals, _, ok := store.DecodeEntry(tbody)
	if !ok {
		t.Fatal("raw TBRS response failed codec verification")
	}
	if len(vals) != len(stored.Values) {
		t.Fatalf("tbrs %d values, json %d", len(vals), len(stored.Values))
	}
	for i := range vals {
		if vals[i] != stored.Values[i] {
			t.Fatalf("value %d: tbrs %v json %v", i, vals[i], stored.Values[i])
		}
	}

	// The JSON validator must not revalidate the TBRS view and vice versa.
	x := getWithHeaders(t, hs.URL+"/v1/result/"+key,
		map[string]string{"Accept": remotestore.ContentType, "If-None-Match": jtag})
	if x.StatusCode != http.StatusOK {
		t.Fatalf("json ETag revalidated the TBRS view: %d", x.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func itoa(n int) string { return strconv.Itoa(n) }

// etagCases are If-None-Match headers and whether each matches the tag
// `"abc.j1"`; the fuzz target seeds its corpus with them too.
var etagCases = []struct {
	header string
	want   bool
}{
	{`"abc.j1"`, true},
	{`*`, true},
	{` * `, true},
	{`W/"abc.j1"`, true},
	{`"x", "abc.j1"`, true},
	{`"x","abc.j1", "y"`, true},
	{`"abc.j2"`, false},
	{`abc.j1`, false},
	{``, false},
	{`"x", "y"`, false},
}

func TestEtagMatch(t *testing.T) {
	for _, c := range etagCases {
		if got := etagMatch(c.header, `"abc.j1"`); got != c.want {
			t.Errorf("etagMatch(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// FuzzETagMatch: no If-None-Match header panics etagMatch. A well-formed
// strong tag t (a quoted run of RFC 7232 etagc bytes) matches t, W/t and
// `"x", t`; and a header other than `*` matches t only if it contains t,
// so a 304 never answers a tag the client did not send.
func FuzzETagMatch(f *testing.F) {
	for _, c := range etagCases {
		f.Add(c.header, "abc.j1")
	}
	f.Add(`W/"x", W/"abc.j1"`, "abc.j1")
	f.Add(`"x", W/"a,b"`, "a,b")
	f.Fuzz(func(t *testing.T, header, opaque string) {
		tag := []byte{'"'}
		for i := 0; i < len(opaque); i++ {
			if c := opaque[i]; c == 0x21 || c >= 0x23 && c != 0x7f {
				tag = append(tag, c)
			}
		}
		etag := string(append(tag, '"'))
		for _, h := range []string{etag, "W/" + etag, `"x", ` + etag} {
			if !etagMatch(h, etag) {
				t.Fatalf("etagMatch(%q, %q) = false", h, etag)
			}
		}
		if etagMatch(header, etag) && strings.TrimSpace(header) != "*" && !strings.Contains(header, etag) {
			t.Fatalf("etagMatch(%q, %q) = true, but the header does not contain the tag", header, etag)
		}
	})
}

// TestWarmEvalAllocs pins the dataplane's per-request allocation budget:
// a warm POST /v1/eval through the full handler stack. The pre-PR number
// was 60 allocs/op; the byte cache plus pooled scratch brings it to 8.
// The bound leaves slack for Go-version drift but fails on any regression
// that reintroduces per-request marshal or parse garbage.
func TestWarmEvalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts include race-detector instrumentation")
	}
	h, req, body, w := newWarmBench(t, testGridQuick)
	allocs := testing.AllocsPerRun(200, func() {
		body.Seek(0, 0)
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	if allocs > 12 {
		t.Errorf("warm eval: %.0f allocs/op, budget 12", allocs)
	}
}

// TestMetricsDataplane: the new byte-cache counters and the request
// histogram appear on /metrics.
func TestMetricsDataplane(t *testing.T) {
	_, hs := newDataplaneServer(t, "", 0)
	postEval(t, hs.URL, testGridQuick)
	postEval(t, hs.URL, testGridQuick)
	if v := metric(t, hs.URL, "response_bytes_cache_hits_total"); v < 1 {
		t.Fatalf("byte-cache hits: %d", v)
	}
	if v := metric(t, hs.URL, "response_bytes_cache_misses_total"); v < 1 {
		t.Fatalf("byte-cache misses: %d", v)
	}
	_, body := get(t, hs.URL+"/metrics")
	for _, want := range []string{
		"topobench_request_seconds_bucket{route=\"eval\",le=\"+Inf\"}",
		"topobench_request_seconds_bucket{route=\"other\",le=\"+Inf\"}",
		"topobench_request_seconds_sum{route=\"eval\"}",
		"topobench_request_seconds_count{route=\"eval\"}",
		"topobench_response_bytes_cache_evictions_total",
		"# TYPE topobench_request_seconds histogram",
		"# TYPE topobench_eval_requests_total counter",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestJobAdoptsByteCache: a job finished by a previous process answers
// its FIRST result poll with 200 when the new process already holds the
// canonical bytes in its byte cache (a synchronous adoption, no replay
// round-trip), and the bytes match the synchronous eval's.
func TestJobAdoptsByteCache(t *testing.T) {
	dir := t.TempDir()
	_, hsA := newTestServer(t, dir, 4)
	var sub struct {
		Job  string `json:"job"`
		Poll string `json:"poll"`
	}
	status, body := postJSON(t, hsA.URL+"/v1/jobs", `{"grid":"`+testGridQuick+`"}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, hsA.URL, sub.Job)

	// "Restart": a fresh process over the same store, byte cache warmed by
	// a synchronous eval of the same grid.
	_, hsB := newTestServer(t, dir, 4)
	status, evalBody := postEval(t, hsB.URL, testGridQuick)
	if status != http.StatusOK {
		t.Fatalf("warm eval on B: %d", status)
	}
	status, jobBody := get(t, hsB.URL+"/v1/jobs/"+sub.Job+"/result")
	if status != http.StatusOK {
		t.Fatalf("first poll after restart: got %d want 200 (byte-cache adoption should be synchronous)", status)
	}
	if !bytes.Equal(jobBody, evalBody) {
		t.Fatal("adopted job bytes differ from the synchronous eval's")
	}
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func waitJobDone(t *testing.T, url, id string) {
	t.Helper()
	deadline := 200
	for i := 0; i < deadline; i++ {
		_, body := get(t, url+"/v1/jobs/"+id)
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done":
			return
		case "failed", "canceled":
			t.Fatalf("job %s: %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s not done after %d polls", id, deadline)
}
