package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// withCRC returns a copy of buf with its CRC-32 trailer recomputed over
// everything before it, so a mutated input gets past the checksum to the
// parser. Inputs too short to hold a trailer come back as they are.
func withCRC(buf []byte) []byte {
	if len(buf) < trailerSize {
		return buf
	}
	out := append([]byte(nil), buf...)
	n := len(out) - trailerSize
	binary.LittleEndian.PutUint32(out[n:], crc32.ChecksumIEEE(out[:n]))
	return out
}

// FuzzDecodeEntry: no input panics DecodeEntry, and every input it
// accepts — as given, or with its CRC recomputed — is exactly the bytes
// EncodeLinked writes for the decoded values and parent link.
func FuzzDecodeEntry(f *testing.F) {
	f.Add(EncodeLinked([]float64{1.5, -2, 0}, Addr("parent")))
	f.Fuzz(func(t *testing.T, buf []byte) {
		for _, in := range [][]byte{buf, withCRC(buf)} {
			vals, parent, ok := DecodeEntry(in)
			if !ok {
				continue
			}
			if out := EncodeLinked(vals, parent); !bytes.Equal(out, in) {
				t.Fatalf("accepted entry %x re-encodes to %x", in, out)
			}
		}
	})
}

// FuzzDecodeJob: no input panics DecodeJob, and every input it accepts —
// as given, or with its CRC recomputed — is exactly the bytes EncodeJob
// writes for the decoded record.
func FuzzDecodeJob(f *testing.F) {
	good := EncodeJob(sampleJob())
	f.Add(good)
	f.Add(reserveJob(good, 7))
	f.Add(EncodeJob(emptyDone()))
	f.Add(EncodeJob(JobRecord{ID: "0c", State: JobCanceled, Status: 499, Error: "all clients gone"}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		for _, in := range [][]byte{buf, withCRC(buf)} {
			rec, ok := DecodeJob(in)
			if !ok {
				continue
			}
			if out := EncodeJob(rec); !bytes.Equal(out, in) {
				t.Fatalf("accepted record %x re-encodes to %x", in, out)
			}
		}
	})
}
