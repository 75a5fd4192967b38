package store

import (
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
)

// The on-disk entry format is deliberately tiny and self-verifying:
//
//	offset  size  field
//	0       4     magic "TBRS"
//	4       2     codec version (little-endian uint16)
//	6       2     flags (little-endian uint16; bit 0 = parent link present)
//	8       4     value count (little-endian uint32)
//	12      8·n   IEEE-754 float64 values, little-endian bit patterns
//	12+8n   32    parent content address (raw SHA-256), iff flag bit 0
//	…       4     CRC-32 (IEEE) of everything before it
//
// DecodeEntry treats ANY deviation — short file, wrong magic, foreign
// codec version, unknown flag bits, count/length mismatch, checksum
// failure — as "no entry": a store can only ever return exactly what
// EncodeLinked wrote, never garbage.
//
// The parent link (codec v2) records which entry's solve warm-started
// this one — the delta-evaluation chain made durable, so a fresh process
// or a peer replica can observe the provenance of an incremental result.
// The link is an optimization/observability hint, never load-bearing for
// correctness: a reader that ignores DecodeEntry's parent still gets
// exactly the certified run values.
//
// CodecVersion must be bumped whenever the encoding of values changes
// (layout, semantics, or the meaning of a run value): entries written by
// an older codec then simply read as misses and are re-solved, so a
// version bump can never resurrect stale bytes as fresh results. v1→v2
// added the flags word and the parent link; every v1 entry on disk reads
// as a miss once, then is re-solved and rewritten under v2. v2→v3 kept
// the layout but changed the meaning of mcf run values: the solver lost
// its phase-start tree prebuild, so its throughputs moved inside the ε
// class, and a v2 value is re-solved rather than mixed with v3 ones.
const (
	CodecVersion uint16 = 3

	headerSize  = 12
	trailerSize = 4
	parentSize  = 32 // raw SHA-256 of the parent entry's cache key

	// flagParent marks an entry carrying a parent content-address link.
	flagParent uint16 = 1 << 0
	// knownFlags is the set DecodeEntry accepts; any other bit means a future
	// (or corrupt) writer and the entry reads as a miss.
	knownFlags = flagParent
)

var magic = [4]byte{'T', 'B', 'R', 'S'}

// EncodeLinked serializes run values into the versioned entry format —
// the bytes a SaveLinked writes — with an optional parent content-address
// link (parent is "" or 64 hex chars; a malformed parent is silently
// dropped rather than corrupting the entry). It is exported for
// transports that move entries between stores verbatim (the remote-store
// wire format is exactly the on-disk format, so the CRC travels with the
// values and the receiver re-verifies it).
func EncodeLinked(vals []float64, parent string) []byte {
	var link []byte
	if len(parent) == 2*parentSize {
		if raw, err := hex.DecodeString(parent); err == nil {
			link = raw
		}
	}
	n := headerSize + 8*len(vals) + len(link)
	buf := make([]byte, n+trailerSize)
	copy(buf[0:4], magic[:])
	binary.LittleEndian.PutUint16(buf[4:6], CodecVersion)
	if link != nil {
		binary.LittleEndian.PutUint16(buf[6:8], flagParent)
	}
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(vals)))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[headerSize+8*i:], math.Float64bits(v))
	}
	copy(buf[headerSize+8*len(vals):], link)
	sum := crc32.ChecksumIEEE(buf[:n])
	binary.LittleEndian.PutUint32(buf[n:], sum)
	return buf
}

// DecodeEntry parses entry bytes — the receiving end of EncodeLinked —
// returning the values and the parent content-address link ("" when the
// entry carries none), ok=false on any corruption, version mismatch,
// unknown flags, or truncation. A decoded entry is exactly what some
// EncodeLinked produced; garbage never parses.
func DecodeEntry(buf []byte) (vals []float64, parent string, ok bool) {
	return decodeEntry(buf, nil)
}

// decodeEntry is DecodeEntry with caller-owned value scratch: parsed
// values are appended to vals (nil allocates fresh; a reused slice sliced
// to zero length lets a hot read loop decode entry after entry without
// allocating). On ok=false the returned slice is vals untouched.
func decodeEntry(buf []byte, vals []float64) ([]float64, string, bool) {
	if len(buf) < headerSize+trailerSize {
		return vals, "", false
	}
	if [4]byte(buf[0:4]) != magic {
		return vals, "", false
	}
	if binary.LittleEndian.Uint16(buf[4:6]) != CodecVersion {
		return vals, "", false
	}
	flags := binary.LittleEndian.Uint16(buf[6:8])
	if flags&^knownFlags != 0 {
		return vals, "", false
	}
	extra := 0
	if flags&flagParent != 0 {
		extra = parentSize
	}
	n := binary.LittleEndian.Uint32(buf[8:12])
	if n > (1<<31-headerSize-trailerSize-parentSize)/8 ||
		len(buf) != headerSize+8*int(n)+extra+trailerSize {
		return vals, "", false
	}
	body := buf[:headerSize+8*int(n)+extra]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[len(body):]) {
		return vals, "", false
	}
	if vals == nil {
		// A successful decode always yields a non-nil slice, even for the
		// empty value list (nil would read as "no entry" to callers that
		// compare against what encode was given).
		vals = make([]float64, 0, n)
	}
	for i := 0; i < int(n); i++ {
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(buf[headerSize+8*i:])))
	}
	parent := ""
	if extra > 0 {
		parent = hex.EncodeToString(buf[headerSize+8*int(n) : headerSize+8*int(n)+parentSize])
	}
	return vals, parent, true
}
