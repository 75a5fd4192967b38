package faultinject

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestDeterministicReplay: equal seeds and equal call sequences draw
// identical fault sequences — the property that makes a failing chaos run
// reproducible from its seed.
func TestDeterministicReplay(t *testing.T) {
	cfg := Config{Seed: 42, ResetProb: 0.2, HTTP500Prob: 0.2, TruncateProb: 0.1, CorruptProb: 0.1}
	run := func() []fault {
		in := newInjector(cfg)
		var seq []fault
		for i := 0; i < 200; i++ {
			f, _, _ := in.draw()
			seq = append(seq, f)
		}
		return seq
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	other := newInjector(Config{Seed: 43, ResetProb: 0.2, HTTP500Prob: 0.2, TruncateProb: 0.1, CorruptProb: 0.1})
	diverged := false
	for i := 0; i < 200; i++ {
		f, _, _ := other.draw()
		if f != a[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds drew the identical 200-call fault sequence")
	}
}

// TestTransportFaults drives each fault class through a real HTTP stack
// and checks what the client observes.
func TestTransportFaults(t *testing.T) {
	payload := []byte("twelve bytes")
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	}))
	t.Cleanup(hs.Close)
	do := func(cfg Config, ctx context.Context) (*http.Response, []byte, error) {
		tr := NewTransport(nil, cfg)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL, nil)
		resp, err := tr.RoundTrip(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, body, nil
	}

	t.Run("pass", func(t *testing.T) {
		resp, body, err := do(Config{}, context.Background())
		if err != nil || resp.StatusCode != 200 || !bytes.Equal(body, payload) {
			t.Fatalf("clean pass-through broken: %v %v %q", err, resp, body)
		}
	})
	t.Run("reset", func(t *testing.T) {
		if _, _, err := do(Config{ResetProb: 1}, context.Background()); err == nil {
			t.Fatal("reset draw returned a response")
		}
	})
	t.Run("http500", func(t *testing.T) {
		resp, _, err := do(Config{HTTP500Prob: 1}, context.Background())
		if err != nil || resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("500 draw: %v %v", err, resp)
		}
	})
	t.Run("timeout", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, _, err := do(Config{TimeoutProb: 1}, ctx)
		if err == nil {
			t.Fatal("timeout draw returned a response")
		}
		if time.Since(start) < 10*time.Millisecond {
			t.Fatal("timeout draw returned before the context expired")
		}
	})
	t.Run("truncate", func(t *testing.T) {
		_, body, err := do(Config{TruncateProb: 1}, context.Background())
		if err != nil || len(body) != len(payload)/2 {
			t.Fatalf("truncate draw: %v %q", err, body)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		_, body, err := do(Config{CorruptProb: 1}, context.Background())
		if err != nil || len(body) != len(payload) || bytes.Equal(body, payload) {
			t.Fatalf("corrupt draw: %v %q (must differ from %q by one bit)", err, body, payload)
		}
		diff := 0
		for i := range body {
			for b := body[i] ^ payload[i]; b != 0; b &= b - 1 {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("corrupt draw flipped %d bits, want exactly 1", diff)
		}
	})
}

// okBackend is a healthy Load/SaveLinked pair for Backend wrapper tests.
type okBackend struct{ saves, loads int }

func (b *okBackend) Load(context.Context, string) ([]float64, bool) {
	b.loads++
	return []float64{1}, true
}
func (b *okBackend) SaveLinked(string, []float64, string) error {
	b.saves++
	return nil
}

// TestBackendFaults: fabricated failures never reach the wrapped backend;
// passes always do.
func TestBackendFaults(t *testing.T) {
	base := &okBackend{}
	fb := NewBackend(base, Config{ResetProb: 1})
	ctx := context.Background()
	if _, ok := fb.Load(ctx, "k"); ok {
		t.Fatal("reset draw surfaced a hit")
	}
	if err := fb.SaveLinked("k", nil, ""); err == nil {
		t.Fatal("reset draw surfaced a successful save")
	}
	if base.loads != 0 || base.saves != 0 {
		t.Fatalf("fabricated failures reached the backend: %+v", base)
	}

	clean := NewBackend(base, Config{})
	if _, ok := clean.Load(ctx, "k"); !ok {
		t.Fatal("clean wrapper lost the hit")
	}
	if err := clean.SaveLinked("k", nil, ""); err != nil {
		t.Fatal(err)
	}
	if base.loads != 1 || base.saves != 1 {
		t.Fatalf("clean calls did not delegate: %+v", base)
	}
	if st := clean.Stats(); st.Passed != 2 || st.Calls != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestParseSpec: the CLI grammar, including the "error" convenience knob's
// combined-rate arithmetic and the unknown-key rule.
func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=7,error=0.2,corrupt=0.05,latency=5ms,latencyprob=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.CorruptProb != 0.05 || cfg.Latency != 5*time.Millisecond || cfg.LatencyProb != 0.5 {
		t.Fatalf("parsed: %+v", cfg)
	}
	// error=p splits so the combined reset+500 rate is exactly p.
	combined := cfg.ResetProb + (1-cfg.ResetProb)*cfg.HTTP500Prob
	if diff := combined - 0.2; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("combined error rate %v, want 0.2 (reset=%v http500=%v)", combined, cfg.ResetProb, cfg.HTTP500Prob)
	}
	if c, err := ParseSpec(""); err != nil || c != (Config{}) {
		t.Fatalf("empty spec: %+v %v", c, err)
	}
	for _, bad := range badSpecs {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// badSpecs are fault specs ParseSpec must reject; the fuzz target seeds
// its corpus with them too.
var badSpecs = []string{
	"bogus=1", "error=2", "seed=x", "latency=fast", "error",
	"corrupt=NaN", "error=nan", "latency=-5ms", // would inject nothing
}

// FuzzFaultSpec: no spec panics ParseSpec, and an accepted Config has
// every probability in [0, 1] and a non-negative latency.
func FuzzFaultSpec(f *testing.F) {
	f.Add("seed=7,error=0.2,corrupt=0.05,latency=5ms,latencyprob=0.5")
	f.Add("seed=11,error=0.2,corrupt=0.05")
	f.Add("reset=1,http500=0,timeout=0.01,truncate=0.02")
	f.Add("")
	for _, s := range badSpecs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		probs := []float64{cfg.TimeoutProb, cfg.ResetProb, cfg.HTTP500Prob, cfg.TruncateProb, cfg.CorruptProb, cfg.LatencyProb}
		for _, p := range probs {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("spec %q: probability %v outside [0, 1] in %+v", spec, p, cfg)
			}
		}
		if cfg.Latency < 0 {
			t.Fatalf("spec %q: negative latency %v", spec, cfg.Latency)
		}
	})
}

// TestErrorRateEmpirical: with error=0.5 over many draws, roughly half
// the calls fail — the knob means what it says.
func TestErrorRateEmpirical(t *testing.T) {
	cfg, err := ParseSpec("seed=3,error=0.5")
	if err != nil {
		t.Fatal(err)
	}
	in := newInjector(cfg)
	const n = 4000
	for i := 0; i < n; i++ {
		in.draw()
	}
	st := in.stats()
	failed := st.Resets + st.HTTP500s
	if failed < n*4/10 || failed > n*6/10 {
		t.Fatalf("error=0.5 produced %d/%d failures (%+v)", failed, n, st)
	}
}
