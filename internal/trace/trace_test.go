package trace

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Options{Sample: 1})
	tid := tr.newTraceID()
	sid := tr.newSpanID()
	h := FormatTraceparent(tid, sid, true)
	if len(h) != traceparentLen || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("malformed traceparent %q", h)
	}
	gt, gs, sampled, ok := ParseTraceparent(h)
	if !ok || gt != tid || gs != sid || !sampled {
		t.Fatalf("round trip lost data: %v %v %v %v", gt, gs, sampled, ok)
	}
	if _, _, s, _ := ParseTraceparent(FormatTraceparent(tid, sid, false)); s {
		t.Fatalf("unsampled flag did not round-trip")
	}
}

// malformedTraceparents are headers ParseTraceparent must reject; the
// fuzz target seeds its corpus with them too.
var malformedTraceparents = []string{
	"",
	"00-short",
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",              // reserved version
	"00-00000000000000000000000000000000-00f067aa0ba902b7-01",              // zero trace id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",              // zero span id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",        // trailing data on v00
	"00-ZZf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",              // non-hex
	"00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",              // bad separator
	"004bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-0123456789abc", // shifted layout
	"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",              // non-hex version
	"fF-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",              // reserved version, mixed case
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",              // upper-case ids
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	for _, h := range malformedTraceparents {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
	}
	// A future version with trailing fields parses by known prefix.
	h := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-whatever"
	if _, _, sampled, ok := ParseTraceparent(h); !ok || !sampled {
		t.Errorf("ParseTraceparent(%q) = ok=%v sampled=%v, want prefix-parse success", h, ok, sampled)
	}
}

// FuzzParseTraceparent: no header panics ParseTraceparent. An accepted
// header carries two non-zero ids, and FormatTraceparent of its fields
// parses back to the same ids and sampled flag. An accepted 55-byte
// version-00 header with flags 00 or 01 is exactly the bytes
// FormatTraceparent renders for it, so a joined trace carries the id the
// caller sent.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-whatever")
	for _, h := range malformedTraceparents {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, sampled, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if tid.IsZero() || sid.IsZero() {
			t.Fatalf("%q: accepted a zero id", h)
		}
		out := FormatTraceparent(tid, sid, sampled)
		if tid2, sid2, sampled2, ok2 := ParseTraceparent(out); !ok2 || tid2 != tid || sid2 != sid || sampled2 != sampled {
			t.Fatalf("%q: re-formatted %q parses to %v %v %v %v", h, out, tid2, sid2, sampled2, ok2)
		}
		if len(h) == traceparentLen && strings.HasPrefix(h, "00-") && (strings.HasSuffix(h, "-00") || strings.HasSuffix(h, "-01")) && out != h {
			t.Fatalf("%q re-formats to %q", h, out)
		}
	})
}

func TestSamplingGate(t *testing.T) {
	if (*Tracer)(nil).SampleNext() {
		t.Fatal("nil tracer sampled")
	}
	never := New(Options{Sample: 0})
	for i := 0; i < 100; i++ {
		if never.SampleNext() {
			t.Fatal("Sample:0 tracer sampled")
		}
	}
	always := New(Options{Sample: 1})
	for i := 0; i < 100; i++ {
		if !always.SampleNext() {
			t.Fatal("Sample:1 tracer skipped a request")
		}
	}
	tenth := New(Options{Sample: 0.1})
	hits := 0
	for i := 0; i < 1000; i++ {
		if tenth.SampleNext() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("Sample:0.1 over 1000 requests sampled %d, want exactly 100 (counter gate)", hits)
	}
}

func TestSpanHierarchyAndSnapshot(t *testing.T) {
	tcr := New(Options{Sample: 1, Buffer: 4})
	tr := tcr.Start(TraceID{}, SpanID{})
	root := tr.Root("HTTP POST /v1/eval")
	ctx := ContextWithSpan(context.Background(), root)
	child := StartSpan(ctx, "flight.lead")
	child.Attr("grid", "g1")
	child.AttrInt("runs", 3)
	grand := StartSpan(ContextWithSpan(ctx, child), "mcf.solve")
	grand.End()
	child.End()
	root.End()
	tcr.Finish(tr, 5*time.Millisecond, false)

	snap := tcr.Snapshot(0)
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d traces, want 1", len(snap))
	}
	got := snap[0]
	if got.TraceID != tr.ID().String() || got.Root != "HTTP POST /v1/eval" {
		t.Fatalf("trace header wrong: %+v", got)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(got.Spans))
	}
	if got.Spans[0].Parent != "" {
		t.Fatalf("root span has parent %q", got.Spans[0].Parent)
	}
	if got.Spans[1].Parent != got.Spans[0].SpanID {
		t.Fatalf("child not parented to root: %+v", got.Spans)
	}
	if got.Spans[2].Parent != got.Spans[1].SpanID {
		t.Fatalf("grandchild not parented to child: %+v", got.Spans)
	}
	if got.Spans[1].Attrs["grid"] != "g1" || got.Spans[1].Attrs["runs"] != int64(3) {
		t.Fatalf("attrs lost: %+v", got.Spans[1].Attrs)
	}
	// min-duration filter drops the 5ms trace.
	if n := len(tcr.Snapshot(10 * time.Millisecond)); n != 0 {
		t.Fatalf("min filter kept %d traces", n)
	}
}

func TestRemoteParentJoinsTrace(t *testing.T) {
	tcr := New(Options{Sample: 1})
	callerTID, _, _, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	var remote SpanID
	copy(remote[:], []byte{0, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7})
	tr := tcr.Start(callerTID, remote)
	tr.Root("GET /v1/result").End()
	tcr.Finish(tr, time.Millisecond, false)
	snap := tcr.Snapshot(0)
	if snap[0].TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("replica trace did not join caller's id: %s", snap[0].TraceID)
	}
	if snap[0].Spans[0].Parent != remote.String() {
		t.Fatalf("root span parent = %q, want caller's span %q", snap[0].Spans[0].Parent, remote.String())
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tcr := New(Options{Sample: 1, Buffer: 2})
	for i := 0; i < 3; i++ {
		tr := tcr.Start(TraceID{}, SpanID{})
		tr.Root("r").End()
		tcr.Finish(tr, time.Duration(i+1)*time.Millisecond, false)
	}
	snap := tcr.Snapshot(0)
	if len(snap) != 2 {
		t.Fatalf("ring holds %d, want 2", len(snap))
	}
	// Newest first: durations 3ms then 2ms; the 1ms trace evicted.
	if snap[0].DurationUS != 3000 || snap[1].DurationUS != 2000 {
		t.Fatalf("ring order wrong: %d, %d", snap[0].DurationUS, snap[1].DurationUS)
	}
}

func TestZeroSpanIsInert(t *testing.T) {
	var s Span
	s.End()
	s.Attr("k", "v")
	s.AttrInt("k", 1)
	if s.OK() {
		t.Fatal("zero span claims to be live")
	}
	if got := StartSpan(context.Background(), "x"); got.OK() {
		t.Fatal("StartSpan on spanless context returned live span")
	}
	if got := StartSpan(nil, "x"); got.OK() { //nolint:staticcheck // nil ctx tolerated by design
		t.Fatal("StartSpan on nil context returned live span")
	}
	if ctx := ContextWithSpan(context.Background(), s); ctx != context.Background() {
		t.Fatal("inert span changed the context")
	}
}

func TestCaptureSlow(t *testing.T) {
	tcr := New(Options{Sample: 0, Slow: time.Millisecond})
	start := time.Now().Add(-50 * time.Millisecond)
	id := tcr.Capture("HTTP POST /v1/eval", start, 50*time.Millisecond,
		Attr{Key: "route", Str: "eval"}, Attr{Key: "status", Num: 200, IsNum: true})
	if id.IsZero() {
		t.Fatal("Capture returned zero id")
	}
	snap := tcr.Snapshot(0)
	if len(snap) != 1 || !snap[0].Slow || snap[0].TraceID != id.String() {
		t.Fatalf("slow capture missing: %+v", snap)
	}
	if snap[0].Spans[0].DurationUS != 50000 {
		t.Fatalf("captured duration %d", snap[0].Spans[0].DurationUS)
	}
	if snap[0].Spans[0].Attrs["route"] != "eval" {
		t.Fatalf("capture attrs lost: %+v", snap[0].Spans[0].Attrs)
	}
}
