package trace

import "encoding/hex"

// W3C trace-context `traceparent` header handling. Only version 00 is
// emitted; any version is accepted as long as the field layout holds
// (per spec, future versions must keep the 00-layout prefix). Every field
// must be lowercase hex (the grammar's HEXDIGLC): FormatTraceparent writes
// ids in lowercase, so a header with upper-case ids would join a trace
// whose id reads differently from the header.
//
//	traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//	             ^^ ^^^^^^^^^^^^^^^^ trace-id ^^^^^^ ^^ span-id ^^^^^^ flags

const traceparentLen = 2 + 1 + 32 + 1 + 16 + 1 + 2

// FormatTraceparent renders a traceparent header value.
func FormatTraceparent(tid TraceID, sid SpanID, sampled bool) string {
	b := make([]byte, 0, traceparentLen)
	b = append(b, '0', '0', '-')
	b = hex.AppendEncode(b, tid[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, sid[:])
	if sampled {
		b = append(b, '-', '0', '1')
	} else {
		b = append(b, '-', '0', '0')
	}
	return string(b)
}

// ParseTraceparent parses a traceparent header value. ok is false for
// anything malformed or carrying the invalid all-zero ids; callers
// then mint a fresh trace instead of joining a broken one.
func ParseTraceparent(h string) (tid TraceID, sid SpanID, sampled, ok bool) {
	if len(h) < traceparentLen {
		return TraceID{}, SpanID{}, false, false
	}
	// Version ff is reserved-invalid; longer values are tolerated only
	// for versions above 00 (spec: parse the known prefix).
	if h[0] == 'f' && h[1] == 'f' {
		return TraceID{}, SpanID{}, false, false
	}
	if len(h) > traceparentLen && (h[:2] == "00" || h[traceparentLen] != '-') {
		return TraceID{}, SpanID{}, false, false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	if !lowerHex(h[:2]) || !lowerHex(h[3:35]) || !lowerHex(h[36:52]) || !lowerHex(h[53:55]) {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(tid[:], []byte(h[3:35])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(sid[:], []byte(h[36:52])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	if tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	return tid, sid, flags[0]&1 == 1, true
}

// lowerHex reports whether s is all lowercase hex digits.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
