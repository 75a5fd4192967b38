// Package faultinject is the deterministic chaos harness for the
// distributed evaluation fleet: wrappers that inject seeded network and
// storage faults — latency, timeouts, 5xx responses, connection resets,
// truncated bodies, bit-flipped payloads, spurious backend errors — at
// the http.RoundTripper and store-backend seams, so the resilience layer
// (internal/remotestore's retries/breaker, internal/store's corruption
// tolerance and claim leases) is proven against the failures it exists
// for, in ordinary `go test` runs and the CI chaos smoke.
//
// Determinism is the point: every fault decision is drawn from one seeded
// RNG behind a mutex, so a failing chaos run replays exactly from its
// seed. The injectors corrupt and drop only what passes through them —
// they never touch the wrapped transport's or backend's own state — so
// the system under test is the real code on its real paths.
package faultinject

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config sets per-call fault probabilities (each in [0, 1], drawn
// independently in the field order below) and the deterministic seed.
type Config struct {
	// Seed feeds the injector's RNG; equal seeds replay equal fault
	// sequences for equal call sequences.
	Seed int64
	// TimeoutProb hangs the call until its context expires — the
	// unresponsive-peer fault (the caller's deadline is what ends it).
	TimeoutProb float64
	// ResetProb fails the call with a connection-reset transport error
	// before reaching the peer.
	ResetProb float64
	// HTTP500Prob answers with a fabricated 500 instead of forwarding.
	HTTP500Prob float64
	// TruncateProb forwards the call but cuts the response body in half —
	// the torn-read fault the codec's length+CRC framing must catch.
	TruncateProb float64
	// CorruptProb forwards the call but flips one payload bit — the
	// bit-rot fault the CRC must catch.
	CorruptProb float64
	// LatencyProb delays the call by Latency before forwarding.
	LatencyProb float64
	// Latency is the injected delay (default 2ms when LatencyProb > 0).
	Latency time.Duration
}

// Stats counts what the injector did, by fault.
type Stats struct {
	Calls     int64 // total calls seen
	Timeouts  int64
	Resets    int64
	HTTP500s  int64
	Truncates int64
	Corrupts  int64
	Delays    int64
	Passed    int64 // calls forwarded untouched
}

// injector is the shared seeded decision engine.
type injector struct {
	mu  sync.Mutex
	rng *rand.Rand
	cfg Config
	st  Stats
}

func newInjector(cfg Config) *injector {
	if cfg.Latency <= 0 {
		cfg.Latency = 2 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &injector{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// fault is the decision for one call: at most one fault fires, chosen by
// independent draws in fixed field order so a seed pins the sequence.
type fault int

const (
	pass fault = iota
	timeout
	reset
	http500
	truncate
	corrupt
)

// draw decides one call's fate; delay > 0 additionally delays it.
func (in *injector) draw() (f fault, delay time.Duration, flipBit int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.st.Calls++
	switch {
	case in.rng.Float64() < in.cfg.TimeoutProb:
		in.st.Timeouts++
		return timeout, 0, 0
	case in.rng.Float64() < in.cfg.ResetProb:
		in.st.Resets++
		return reset, 0, 0
	case in.rng.Float64() < in.cfg.HTTP500Prob:
		in.st.HTTP500s++
		return http500, 0, 0
	case in.rng.Float64() < in.cfg.TruncateProb:
		in.st.Truncates++
		f = truncate
	case in.rng.Float64() < in.cfg.CorruptProb:
		in.st.Corrupts++
		f = corrupt
		flipBit = in.rng.Int63()
	default:
		in.st.Passed++
	}
	if in.rng.Float64() < in.cfg.LatencyProb {
		in.st.Delays++
		delay = in.cfg.Latency
	}
	return f, delay, flipBit
}

func (in *injector) stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.st
}

// Transport wraps an http.RoundTripper with seeded fault injection — the
// "flaky network between replicas" of the chaos smoke. Place it on the
// remote-store client's transport (or `topobench serve -fault-inject`)
// and every remote call risks the configured faults while the peer itself
// stays healthy.
type Transport struct {
	base http.RoundTripper
	in   *injector
}

// NewTransport wraps base (nil means http.DefaultTransport).
func NewTransport(base http.RoundTripper, cfg Config) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, in: newInjector(cfg)}
}

// Stats snapshots the injected-fault counters.
func (t *Transport) Stats() Stats { return t.in.stats() }

// RoundTrip injects this call's drawn fault. Fabricated failures (reset,
// 500, timeout) never reach the wrapped transport; payload faults
// (truncate, corrupt) mutate a private copy of the real response body.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	f, delay, flipBit := t.in.draw()
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	switch f {
	case timeout:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case reset:
		return nil, fmt.Errorf("faultinject: connection reset by peer")
	case http500:
		return &http.Response{
			Status:     "500 Internal Server Error (injected)",
			StatusCode: http.StatusInternalServerError,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Body:    io.NopCloser(strings.NewReader("faultinject: injected server error\n")),
			Request: req,
			Header:  http.Header{},
		}, nil
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || (f != truncate && f != corrupt) {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	switch f {
	case truncate:
		body = body[:len(body)/2]
	case corrupt:
		if len(body) > 0 {
			bit := flipBit % int64(len(body)*8)
			body[bit/8] ^= 1 << (bit % 8)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// Backend wraps a result tier's Load/SaveLinked pair (the store.Remote
// contract) with seeded fault injection — the storage-layer sibling of
// Transport, for torturing the tiered cache and the store's
// reader/writer/pruner interplay without a network. A reset or 500 draw
// fails the call (Load reports a miss, SaveLinked an error); a timeout
// draw stalls it by the configured Latency, then fails it; payload faults
// have no seam here — the disk codec's own tamper tests cover corruption
// — so truncate/corrupt draws pass through.
type Backend struct {
	load func(ctx context.Context, key string) ([]float64, bool)
	save func(key string, vals []float64, parentKey string) error
	in   *injector
}

// NewBackend wraps any Load/SaveLinked pair. The argument is deliberately
// a minimal structural interface so *store.Store, store.Tiered, and
// remotestore.Client all fit.
func NewBackend(base interface {
	Load(ctx context.Context, key string) ([]float64, bool)
	SaveLinked(key string, vals []float64, parentKey string) error
}, cfg Config) *Backend {
	return &Backend{load: base.Load, save: base.SaveLinked, in: newInjector(cfg)}
}

// Stats snapshots the injected-fault counters.
func (b *Backend) Stats() Stats { return b.in.stats() }

// Load injects the drawn fault, then delegates.
func (b *Backend) Load(ctx context.Context, key string) ([]float64, bool) {
	f, delay, _ := b.in.draw()
	if delay > 0 {
		time.Sleep(delay)
	}
	switch f {
	case timeout:
		time.Sleep(b.in.cfg.Latency)
		return nil, false
	case reset, http500:
		return nil, false
	}
	return b.load(ctx, key)
}

// SaveLinked injects the drawn fault, then delegates.
func (b *Backend) SaveLinked(key string, vals []float64, parentKey string) error {
	f, delay, _ := b.in.draw()
	if delay > 0 {
		time.Sleep(delay)
	}
	switch f {
	case timeout:
		time.Sleep(b.in.cfg.Latency)
		return fmt.Errorf("faultinject: save timed out")
	case reset, http500:
		return fmt.Errorf("faultinject: save failed")
	}
	return b.save(key, vals, parentKey)
}

// ParseSpec parses the CLI fault specification, a comma-separated
// key=value list:
//
//	seed=7,error=0.2,corrupt=0.05,truncate=0.02,timeout=0.01,latency=5ms,latencyprob=0.5
//
// "error" splits evenly between connection resets and 5xx responses —
// the catch-all "20% of remote calls fail somehow" knob of the chaos
// smoke. "latency" alone delays every call; with "latencyprob" (in either
// order) it delays that share of calls, and "latencyprob" alone delays by
// Config's 2ms default. latency=0 injects no delay at all. Unknown keys,
// probabilities outside [0, 1] (NaN included) and negative latencies are
// errors, matching the scenario grammar's rule that a typo must never
// silently weaken a test.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	latencySet, probSet := false, false
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return cfg, fmt.Errorf("faultinject: bad spec entry %q (want key=value)", kv)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("faultinject: bad seed %q: %v", v, err)
			}
			cfg.Seed = n
		case "latency":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return cfg, fmt.Errorf("faultinject: bad latency %q (want a non-negative duration)", v)
			}
			cfg.Latency, latencySet = d, true
		default:
			p, err := strconv.ParseFloat(v, 64)
			// Written so that NaN, which never fires, is out of range too.
			if err != nil || !(p >= 0 && p <= 1) {
				return cfg, fmt.Errorf("faultinject: bad probability %s=%q", k, v)
			}
			switch k {
			case "error":
				cfg.ResetProb = p / 2
				// The second draw happens only when the first passed, so the
				// combined rate is p: p/2 + (1-p/2)·q = p ⇒ q = (p/2)/(1-p/2).
				cfg.HTTP500Prob = (p / 2) / (1 - p/2)
			case "reset":
				cfg.ResetProb = p
			case "http500":
				cfg.HTTP500Prob = p
			case "timeout":
				cfg.TimeoutProb = p
			case "truncate":
				cfg.TruncateProb = p
			case "corrupt":
				cfg.CorruptProb = p
			case "latencyprob":
				cfg.LatencyProb, probSet = p, true
			default:
				return cfg, fmt.Errorf("faultinject: unknown spec key %q", k)
			}
		}
	}
	switch {
	case latencySet && cfg.Latency == 0:
		// A zero Config.Latency means the 2ms default, so no delay is
		// expressed as no delayed calls.
		cfg.LatencyProb = 0
	case latencySet && !probSet:
		cfg.LatencyProb = 1
	}
	return cfg, nil
}
