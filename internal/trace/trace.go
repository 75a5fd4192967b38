// Package trace is a lightweight, allocation-disciplined span tracer
// for the topobench service stack.
//
// Design constraints, in order:
//
//  1. The warm dataplane must stay zero-extra-alloc when a request is
//     not sampled. Every entry point is therefore a no-op on the
//     unsampled path: StartSpan on a context without a live span
//     returns the zero Span (no allocation), and every Span method is
//     safe — and free — on the zero value. Instrumentation sites read
//     linearly with no "if traced" branches.
//  2. Sampling is decided once, at the request root, by a 1-in-N
//     counter gate (Tracer.SampleNext) or by an incoming sampled W3C
//     traceparent. Once a trace exists, span recording may allocate;
//     the sampled path is the slow path by construction.
//  3. Completed traces land in a fixed-size ring buffer so the tracer
//     has a hard memory bound regardless of uptime. Snapshot serves
//     the ring newest-first for GET /debug/traces.
//
// Trace identity is W3C trace-context compatible: 16-byte trace IDs,
// 8-byte span IDs, and ParseTraceparent/FormatTraceparent for the
// `traceparent` header, so a peer replica's spans join the caller's
// trace across process boundaries.
package trace

import (
	"context"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a W3C trace-context trace id (16 bytes, rendered as 32
// lowercase hex characters).
type TraceID [16]byte

// SpanID is a W3C trace-context span id (8 bytes, 16 hex characters).
type SpanID [8]byte

// String renders the id as lowercase hex.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the id as lowercase hex.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the id is the invalid all-zero id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// Attr is a key/value annotation on a span. Exactly one of Str/Num is
// meaningful; IsNum selects which.
type Attr struct {
	Key   string
	Str   string
	Num   int64
	IsNum bool
}

// spanRec is the stored form of one span.
type spanRec struct {
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	end    time.Time
	attrs  []Attr
}

// maxSpans bounds the spans recorded per trace; beyond it spans are
// counted but dropped, so a pathological request cannot balloon the
// ring's memory.
const maxSpans = 512

// Options configures a Tracer.
type Options struct {
	// Sample is the fraction of requests traced, in [0, 1]. It is
	// quantized to a deterministic 1-in-N counter gate: 0 disables
	// head sampling entirely, 1 traces every request. Slow-request
	// capture (Slow) applies regardless.
	Sample float64
	// Slow is the duration at or above which a completed request is
	// always captured (and flagged slow), even when head sampling
	// skipped it. Zero disables slow capture.
	Slow time.Duration
	// Buffer is the number of completed traces retained in the ring
	// (default 256).
	Buffer int
}

// Tracer mints, samples, and retains traces.
type Tracer struct {
	every uint64 // sample 1 in every N requests; 0 = never
	slow  time.Duration

	ctr atomic.Uint64 // request counter for the sampling gate
	rng atomic.Uint64 // splitmix64 state for id generation

	mu   sync.Mutex
	ring []*traceRec
	next int
}

// traceRec is a completed trace as retained by the ring.
type traceRec struct {
	id    TraceID
	start time.Time
	dur   time.Duration
	slow  bool
	spans []spanRec
	drops int
}

// New builds a Tracer from o. A nil *Tracer is valid everywhere and
// disables tracing.
func New(o Options) *Tracer {
	every := uint64(0)
	switch {
	case o.Sample >= 1:
		every = 1
	case o.Sample > 0:
		every = uint64(1/o.Sample + 0.5)
	}
	buf := o.Buffer
	if buf <= 0 {
		buf = 256
	}
	t := &Tracer{every: every, slow: o.Slow, ring: make([]*traceRec, buf)}
	t.rng.Store(uint64(time.Now().UnixNano()) | 1)
	return t
}

// Slow returns the configured slow-request threshold (0 = disabled).
func (t *Tracer) Slow() time.Duration {
	if t == nil {
		return 0
	}
	return t.slow
}

// SampleNext reports whether the next request should be head-sampled.
// It is a single atomic add — no allocation — so calling it per
// request on the warm dataplane is free.
func (t *Tracer) SampleNext() bool {
	if t == nil || t.every == 0 {
		return false
	}
	return t.ctr.Add(1)%t.every == 0
}

// rand64 is splitmix64 over an atomic state word: cheap, lock-free,
// and good enough for telemetry ids (never for anything
// security-sensitive).
func (t *Tracer) rand64() uint64 {
	x := t.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		v := t.rand64()
		for i := range id {
			id[i] = byte(v >> (8 * i))
		}
	}
	return id
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		a, b := t.rand64(), t.rand64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

// Start begins a live trace. A zero parent mints a fresh trace id; a
// non-zero parent (from an incoming traceparent) joins the caller's
// trace, and remote becomes the parent of this process's root span so
// the replica's spans nest under the caller's.
func (t *Tracer) Start(parent TraceID, remote SpanID) *Trace {
	if t == nil {
		return nil
	}
	id := parent
	if id.IsZero() {
		id = t.newTraceID()
	}
	return &Trace{tracer: t, id: id, remote: remote, start: time.Now()}
}

// Trace is an in-flight sampled trace. It is safe for concurrent use:
// a flight leader's evaluation goroutines may record spans while the
// HTTP goroutine records its own.
type Trace struct {
	tracer *Tracer
	id     TraceID
	remote SpanID
	start  time.Time

	mu    sync.Mutex
	spans []spanRec
	drops int
}

// ID returns the trace id.
func (tr *Trace) ID() TraceID {
	if tr == nil {
		return TraceID{}
	}
	return tr.id
}

// StartSpan opens a span with an explicit parent span id. Most call
// sites should use the package-level StartSpan(ctx, name) instead;
// this form exists for the root span (parent = the remote caller's
// span id, or zero).
func (tr *Trace) StartSpan(name string, parent SpanID) Span {
	if tr == nil {
		return Span{}
	}
	id := tr.tracer.newSpanID()
	tr.mu.Lock()
	if len(tr.spans) >= maxSpans {
		tr.drops++
		tr.mu.Unlock()
		return Span{}
	}
	idx := len(tr.spans)
	tr.spans = append(tr.spans, spanRec{id: id, parent: parent, name: name, start: time.Now()})
	tr.mu.Unlock()
	return Span{tr: tr, idx: int32(idx), id: id}
}

// Root opens the trace's root span, parented to the remote caller's
// span when the trace was joined from a traceparent.
func (tr *Trace) Root(name string) Span {
	if tr == nil {
		return Span{}
	}
	return tr.StartSpan(name, tr.remote)
}

// Finish completes the trace and commits it to the ring. dur is the
// request's wall-clock duration; slow marks always-sampled-slow
// captures so /debug/traces can distinguish them.
func (t *Tracer) Finish(tr *Trace, dur time.Duration, slow bool) {
	if t == nil || tr == nil {
		return
	}
	tr.mu.Lock()
	spans := tr.spans
	drops := tr.drops
	tr.mu.Unlock()
	rec := &traceRec{id: tr.id, start: tr.start, dur: dur, slow: slow, spans: spans, drops: drops}
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.mu.Unlock()
}

// Capture records a single-span trace after the fact. It backs the
// always-sample-slow rule: a request that was not head-sampled has no
// span detail, but if it turned out slow it still deserves a row in
// /debug/traces and a trace id for the log line. Returns the minted
// trace id.
func (t *Tracer) Capture(name string, start time.Time, dur time.Duration, attrs ...Attr) TraceID {
	if t == nil {
		return TraceID{}
	}
	tr := t.Start(TraceID{}, SpanID{})
	tr.start = start
	tr.Root(name)
	tr.mu.Lock()
	tr.spans[0].start = start
	tr.spans[0].end = start.Add(dur)
	tr.spans[0].attrs = append(tr.spans[0].attrs, attrs...)
	tr.mu.Unlock()
	t.Finish(tr, dur, true)
	return tr.id
}

// Span is a handle onto one recorded span. The zero Span is valid and
// inert: every method is a no-op, so unsampled code paths cost
// nothing beyond the zero-value check.
type Span struct {
	tr  *Trace
	idx int32
	id  SpanID
}

// OK reports whether the span is live (recording).
func (s Span) OK() bool { return s.tr != nil }

// ID returns the span id (zero for an inert span).
func (s Span) ID() SpanID { return s.id }

// TraceID returns the owning trace's id (zero for an inert span).
func (s Span) TraceID() TraceID {
	if s.tr == nil {
		return TraceID{}
	}
	return s.tr.id
}

// End closes the span at time.Now. Ending twice keeps the first end.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	if s.tr.spans[s.idx].end.IsZero() {
		s.tr.spans[s.idx].end = time.Now()
	}
	s.tr.mu.Unlock()
}

// Attr attaches a string annotation.
func (s Span) Attr(key, val string) {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.spans[s.idx].attrs = append(s.tr.spans[s.idx].attrs, Attr{Key: key, Str: val})
	s.tr.mu.Unlock()
}

// AttrInt attaches an integer annotation.
func (s Span) AttrInt(key string, val int64) {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.spans[s.idx].attrs = append(s.tr.spans[s.idx].attrs, Attr{Key: key, Num: val, IsNum: true})
	s.tr.mu.Unlock()
}

// ctxKey keys the current Span in a context.
type ctxKey struct{}

// ContextWithSpan returns a context carrying s as the current span.
// If s is inert the context is returned unchanged (no allocation).
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	if s.tr == nil || ctx == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the current span, or the inert zero Span.
// Safe on a nil context.
func SpanFromContext(ctx context.Context) Span {
	if ctx == nil {
		return Span{}
	}
	if s, ok := ctx.Value(ctxKey{}).(Span); ok {
		return s
	}
	return Span{}
}

// StartSpan opens a child of the context's current span. On a context
// with no live span (the unsampled path) it returns the zero Span
// without allocating, so instrumentation is free when tracing is off.
func StartSpan(ctx context.Context, name string) Span {
	parent := SpanFromContext(ctx)
	if parent.tr == nil {
		return Span{}
	}
	return parent.tr.StartSpan(name, parent.id)
}
