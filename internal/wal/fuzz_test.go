package wal

import (
	"bytes"
	"testing"
)

// FuzzWALDecode pins the recovery contract of the WAL record decoder on
// arbitrary bytes: Decode never panics, returns a validEnd within bounds,
// and the records it yields re-encode byte-for-byte into data[:validEnd] —
// so decode-then-encode round-trips exactly, corruption anywhere is
// reported as a clean truncation point (the bytes at validEnd never form an
// intact frame), and no input can be silently misparsed into records that
// were not written.
func FuzzWALDecode(f *testing.F) {
	frame := func(payloads ...[]byte) []byte {
		var buf bytes.Buffer
		for _, p := range payloads {
			if _, err := AppendFrame(&buf, p); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add(frame([]byte("hello")))
	f.Add(frame([]byte(`[{"op":"+","rel":"T","tuple":["a","b"]}]`)))
	f.Add(frame(nil, []byte("two"), []byte("three")))
	f.Add(append(frame([]byte("clean")), 0xde, 0xad))                                          // torn header
	f.Add(append(frame([]byte("clean")), 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 'x')) // torn payload + bad CRC
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00})                              // absurd length
	corrupt := frame([]byte("flip"), []byte("me"))
	corrupt[frameHeader] ^= 0x01
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		records, validEnd := Decode(data)
		if validEnd < 0 || validEnd > int64(len(data)) {
			t.Fatalf("validEnd %d out of range [0, %d]", validEnd, len(data))
		}
		var rebuilt bytes.Buffer
		for i, r := range records {
			if r.Offset != int64(rebuilt.Len()) {
				t.Fatalf("record %d offset %d, want %d", i, r.Offset, rebuilt.Len())
			}
			if _, err := AppendFrame(&rebuilt, r.Payload); err != nil {
				t.Fatalf("re-encode record %d: %v", i, err)
			}
		}
		if int64(rebuilt.Len()) != validEnd || !bytes.Equal(rebuilt.Bytes(), data[:validEnd]) {
			t.Fatalf("re-encoded records are not the valid prefix: %d bytes vs validEnd %d", rebuilt.Len(), validEnd)
		}
		// Decoding the valid prefix is a fixpoint: same records, clean end.
		again, end2 := Decode(data[:validEnd])
		if end2 != validEnd || len(again) != len(records) {
			t.Fatalf("decode of valid prefix: %d records to %d, want %d to %d", len(again), end2, len(records), validEnd)
		}
		// The truncation point is genuine: the bytes at validEnd do not
		// begin an intact frame (otherwise Decode would have consumed it).
		if validEnd < int64(len(data)) {
			if tail, _ := Decode(data[validEnd:]); len(tail) > 0 {
				t.Fatalf("bytes at validEnd decode as %d records — not a true truncation point", len(tail))
			}
		}
	})
}
