// Package remotestore is the network tier of the result store: a
// scenario.Backend speaking HTTP to a peer `topobench serve` replica's
// result routes (GET and PUT /v1/result/<key>), so a fleet of replicas
// shares one content-addressed result pool.
//
// The wire format is the store's own TBRS codec — the bytes on the wire
// are the bytes on disk, so the CRC travels with the values and the
// receiver re-verifies it; a payload truncated or bit-flipped anywhere in
// transit decodes as a miss, never as wrong data.
//
// The client is built for a flaky fleet and degrades, never escalates:
//
//   - every attempt runs under its own deadline (Options.Timeout), so a
//     hung peer costs bounded latency, never a stalled solve;
//   - retryable failures (network errors, timeouts, 429, 5xx, corrupt
//     payloads) are retried a bounded number of times with exponential
//     backoff and full jitter; authoritative answers (200, 404) and
//     client errors are never retried;
//   - a circuit breaker trips open after Options.BreakerThreshold
//     consecutive failed attempts, short-circuiting calls for the
//     cooldown, then half-opens to let exactly one probe through — a dead
//     peer costs one cheap rejection per call, not a retry storm;
//   - and every failure, at every layer, surfaces as "miss" from Load
//     (the caller solves locally) or a counted error from SaveLinked
//     (durability is best-effort). Under the cache-key invariant a local
//     solve returns byte-identical values, so aggressive degradation is
//     always safe.
package remotestore

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
)

// ContentType is the raw-entry media type of the result routes: request
// it on GET (Accept header) to receive TBRS codec bytes instead of JSON,
// and declare it on PUT bodies.
const ContentType = "application/x-tbrs"

// maxEntryBytes bounds how much of a response body a Load will read — a
// misbehaving peer cannot balloon memory. Entries are 16 bytes + 8 per
// run value, so 4 MiB covers ~500k runs per point.
const maxEntryBytes = 4 << 20

// Options configures a Client. The zero value of every field gets a
// sensible default; only BaseURL is required.
type Options struct {
	// BaseURL is the peer's root, e.g. "http://10.0.0.2:8080".
	BaseURL string
	// Timeout is the per-attempt deadline (default 2s).
	Timeout time.Duration
	// Attempts is the total attempts per call, first try included
	// (default 3). Only retryable failures consume extra attempts.
	Attempts int
	// BackoffBase/BackoffMax shape the retry backoff: attempt k waits a
	// uniformly-jittered duration in [0, min(BackoffMax, BackoffBase·2^k)]
	// (full jitter; defaults 50ms and 1s). Full jitter desynchronizes a
	// fleet of replicas hammering one recovering peer.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold trips the circuit breaker after this many
	// consecutive failed attempts (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before letting a
	// half-open probe through (default 5s).
	BreakerCooldown time.Duration
	// Transport overrides the HTTP transport (nil means
	// http.DefaultTransport) — the seam the fault injector wraps.
	Transport http.RoundTripper
	// Seed feeds the jitter RNG (default 1), so tests replay exact backoff
	// sequences.
	Seed int64
}

func (o *Options) defaults() {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Attempts <= 0 {
		o.Attempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.Transport == nil {
		o.Transport = http.DefaultTransport
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// BreakerState is the circuit breaker's current disposition.
type BreakerState int

const (
	// Closed: calls flow normally.
	Closed BreakerState = iota
	// Open: calls short-circuit until the cooldown elapses.
	Open
	// HalfOpen: one probe is allowed through; its outcome decides.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Stats snapshots a client's activity.
type Stats struct {
	Loads      int64 // Load calls
	LoadHits   int64 // Loads answered with verified values
	LoadMisses int64 // Loads answered miss (404, failures, short-circuits)
	Saves      int64 // SaveLinked calls
	SaveErrs   int64 // Saves that ultimately failed
	Attempts   int64 // HTTP attempts actually made
	Retries    int64 // attempts beyond the first of their call
	Failures   int64 // failed attempts (network, timeout, 5xx, corrupt)
	Corrupt    int64 // payloads rejected by CRC/decode re-verification
	// BreakerOpens counts transitions into Open; ShortCircuits counts
	// calls rejected without touching the network while open.
	BreakerOpens  int64
	ShortCircuits int64
	State         BreakerState
}

// Metrics emits the client's /metrics families in scrape order, each
// with its help text.
func (s Stats) Metrics(emit func(name, help string, v int64)) {
	emit("remote_loads_total", "Remote-store load calls.", s.Loads)
	emit("remote_load_hits_total", "Remote-store loads that returned an entry.", s.LoadHits)
	emit("remote_load_misses_total", "Remote-store loads that answered 404.", s.LoadMisses)
	emit("remote_saves_total", "Remote-store save calls.", s.Saves)
	emit("remote_save_errors_total", "Remote-store saves that failed after retries.", s.SaveErrs)
	emit("remote_attempts_total", "Remote-store HTTP attempts, including retries.", s.Attempts)
	emit("remote_retries_total", "Remote-store attempts that were retries.", s.Retries)
	emit("remote_failures_total", "Remote-store operations that exhausted their retry budget.", s.Failures)
	emit("remote_corrupt_total", "Remote-store responses rejected by codec/CRC verification.", s.Corrupt)
	emit("remote_breaker_opens_total", "Circuit-breaker transitions to open.", s.BreakerOpens)
	emit("remote_short_circuits_total", "Remote-store calls refused by an open breaker.", s.ShortCircuits)
	emit("remote_breaker_state", "Circuit-breaker state (0 closed, 1 open, 2 half-open).", int64(s.State))
}

// errWindowSecs is the resolution of the recent-error window backing
// RecentErrors (per-second buckets; queries beyond this clamp to it).
const errWindowSecs = 60

// Client implements scenario.Backend over a peer replica. Safe for
// concurrent use. Create with New.
type Client struct {
	opt Options
	hc  *http.Client

	mu   sync.Mutex
	rng  *rand.Rand
	st   Stats
	fail int // consecutive failed attempts
	// breaker
	state    BreakerState
	openedAt time.Time
	probing  bool
	// recent-error ring: errAt[i] is the unix second errN[i] counts.
	errN  [errWindowSecs]int64
	errAt [errWindowSecs]int64

	// test hooks (package-internal): now/sleep default to real time.
	now   func() time.Time
	sleep func(time.Duration)
}

// New returns a client for the peer at opt.BaseURL.
func New(opt Options) *Client {
	opt.defaults()
	return &Client{
		opt:   opt,
		hc:    &http.Client{Transport: opt.Transport},
		rng:   rand.New(rand.NewSource(opt.Seed)),
		now:   time.Now,
		sleep: time.Sleep,
	}
}

// BaseURL reports the peer this client speaks to.
func (c *Client) BaseURL() string { return c.opt.BaseURL }

// Stats snapshots the client's counters and breaker state.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.State = c.stateLocked()
	return st
}

// State reports the breaker's current disposition (Open decays to
// HalfOpen once the cooldown has elapsed).
func (c *Client) State() BreakerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stateLocked()
}

func (c *Client) stateLocked() BreakerState {
	if c.state == Open && c.now().Sub(c.openedAt) >= c.opt.BreakerCooldown {
		return HalfOpen
	}
	return c.state
}

// RecentErrors counts failed attempts within the trailing window
// (clamped to 60s) — the /healthz degraded signal.
func (c *Client) RecentErrors(window time.Duration) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	secs := int64(window / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > errWindowSecs {
		secs = errWindowSecs
	}
	cutoff := c.now().Unix() - secs
	var n int64
	for i, at := range c.errAt {
		if at > cutoff {
			n += c.errN[i]
		}
	}
	return n
}

// allow is the breaker gate for one attempt. Allowed probe attempts in
// the half-open state are exclusive: concurrent calls short-circuit until
// the probe reports.
func (c *Client) allow() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.stateLocked() {
	case Closed:
		return true
	case HalfOpen:
		if c.probing {
			c.st.ShortCircuits++
			return false
		}
		c.state = HalfOpen
		c.probing = true
		return true
	default: // Open, cooling down
		c.st.ShortCircuits++
		return false
	}
}

// onResult records an attempt's outcome into the failure streak, the
// breaker, and the recent-error window.
func (c *Client) onResult(failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wasProbe := c.probing
	c.probing = false
	if !failed {
		c.fail = 0
		c.state = Closed
		return
	}
	c.st.Failures++
	sec := c.now().Unix()
	i := sec % errWindowSecs
	if c.errAt[i] != sec {
		c.errAt[i], c.errN[i] = sec, 0
	}
	c.errN[i]++
	c.fail++
	if wasProbe || (c.state == Closed && c.fail >= c.opt.BreakerThreshold) {
		c.state = Open
		c.openedAt = c.now()
		c.st.BreakerOpens++
	}
}

// attemptErr classifies one attempt: nil means authoritative success,
// retryable says whether another attempt may help.
type attemptErr struct {
	err       error
	retryable bool
}

// call runs the bounded retry loop around one logical operation. do
// performs one attempt; it returns nil on an authoritative answer. call
// returns the last attempt's error, or a short-circuit error when the
// breaker rejected the call outright.
func (c *Client) call(do func(ctx context.Context) *attemptErr) error {
	var last error
	for attempt := 0; attempt < c.opt.Attempts; attempt++ {
		if !c.allow() {
			if last != nil {
				return last
			}
			return fmt.Errorf("remotestore: circuit breaker open for %s", c.opt.BaseURL)
		}
		if attempt > 0 {
			c.mu.Lock()
			c.st.Retries++
			c.mu.Unlock()
			c.sleep(c.backoff(attempt))
		}
		c.mu.Lock()
		c.st.Attempts++
		c.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), c.opt.Timeout)
		ae := do(ctx)
		cancel()
		if ae == nil {
			c.onResult(false)
			return nil
		}
		c.onResult(true)
		last = ae.err
		if !ae.retryable {
			return last
		}
	}
	return last
}

// backoff draws attempt k's full-jitter wait: uniform in
// [0, min(BackoffMax, BackoffBase·2^(k-1))].
func (c *Client) backoff(attempt int) time.Duration {
	ceil := c.opt.BackoffBase << (attempt - 1)
	if ceil > c.opt.BackoffMax || ceil <= 0 {
		ceil = c.opt.BackoffMax
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(ceil) + 1))
	c.mu.Unlock()
	return d
}

func (c *Client) url(addr string) string {
	return strings.TrimSuffix(c.opt.BaseURL, "/") + "/v1/result/" + addr
}

// classify buckets an HTTP status: retryable server-side trouble vs a
// terminal client-side answer.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// Load fetches the values stored under key on the peer. Every failure —
// timeout, refused connection, 5xx, breaker open, corrupt payload after
// retries — degrades to (nil, false): the caller solves locally, which
// under the cache-key invariant yields identical bytes. When ctx holds a
// sampled trace span, every attempt forwards it as a W3C `traceparent`
// header, so the peer replica samples the request and its spans land
// under the caller's trace id — the cross-process half of end-to-end
// tracing. The attempt timeout still derives from the client's own
// Options.Timeout, not from ctx: a caller's deadline must not change the
// retry/breaker behavior the chaos tests pin down.
func (c *Client) Load(ctx context.Context, key string) ([]float64, bool) {
	c.mu.Lock()
	c.st.Loads++
	c.mu.Unlock()
	caller := trace.SpanFromContext(ctx)
	addr := store.Addr(key)
	var vals []float64
	var found bool
	err := c.call(func(ctx context.Context) *attemptErr {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(addr), nil)
		if err != nil {
			return &attemptErr{err: err}
		}
		req.Header.Set("Accept", ContentType)
		if caller.OK() {
			req.Header.Set("traceparent", trace.FormatTraceparent(caller.TraceID(), caller.ID(), true))
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return &attemptErr{err: err, retryable: true}
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			body, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
			if err != nil {
				return &attemptErr{err: err, retryable: true}
			}
			v, _, ok := store.DecodeEntry(body)
			if !ok {
				// The CRC re-verification: a truncated or bit-flipped
				// payload is a transport fault, worth another attempt.
				c.mu.Lock()
				c.st.Corrupt++
				c.mu.Unlock()
				return &attemptErr{err: fmt.Errorf("remotestore: corrupt entry for %s", addr), retryable: true}
			}
			vals, found = v, true
			return nil
		case resp.StatusCode == http.StatusNotFound:
			return nil // authoritative miss
		default:
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
			return &attemptErr{
				err:       fmt.Errorf("remotestore: GET %s: %s", addr, resp.Status),
				retryable: retryableStatus(resp.StatusCode),
			}
		}
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil || !found {
		c.st.LoadMisses++
		return nil, false
	}
	c.st.LoadHits++
	return vals, true
}

// SaveLinked publishes the values under key to the peer, with the parent
// key whose result warm-started them ("" for none): the link rides inside
// the TBRS body, under the same CRC as the values, so the receiving
// replica persists the warm-start provenance too. The returned error is
// informational — callers (scenario.Cache, store.Tiered) count it and
// move on; remote durability is best-effort by design.
func (c *Client) SaveLinked(key string, vals []float64, parentKey string) error {
	c.mu.Lock()
	c.st.Saves++
	c.mu.Unlock()
	addr := store.Addr(key)
	parent := ""
	if parentKey != "" {
		parent = store.Addr(parentKey)
	}
	body := store.EncodeLinked(vals, parent)
	err := c.call(func(ctx context.Context) *attemptErr {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.url(addr), bytes.NewReader(body))
		if err != nil {
			return &attemptErr{err: err}
		}
		req.Header.Set("Content-Type", ContentType)
		resp, err := c.hc.Do(req)
		if err != nil {
			return &attemptErr{err: err, retryable: true}
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return nil
		}
		return &attemptErr{
			err:       fmt.Errorf("remotestore: PUT %s: %s", addr, resp.Status),
			retryable: retryableStatus(resp.StatusCode),
		}
	})
	if err != nil {
		c.mu.Lock()
		c.st.SaveErrs++
		c.mu.Unlock()
		return err
	}
	return nil
}

// Abandon is a no-op (scenario.Backend): the client takes no solve claims.
func (c *Client) Abandon(string) {}
