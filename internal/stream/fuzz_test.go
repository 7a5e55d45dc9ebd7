package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frame builds one CRC-correct binary frame around payload — the fuzz
// seeds' own tiny encoder, so the seeds exercise the tag dispatch and the
// batch codec, not just the CRC gate.
func frame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

func uv(u uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], u)
	return tmp[:n]
}

func str(s string) []byte {
	return append(uv(uint64(len(s))), s...)
}

// seedStreams returns hand-built binary streams covering the protocol's
// corners: clean, error-terminated, truncated, corrupt, and a clean stream
// with a byte after its trailer.
func seedStreams() [][]byte {
	// One violation: kind, constraint, relation, row 0 (zigzag), one
	// witness tuple of two values.
	var v bytes.Buffer
	v.Write(str("cfd"))
	v.Write(str("phi"))
	v.Write(str("r"))
	v.WriteByte(0) // zigzag varint 0
	v.Write(uv(1))
	v.Write(uv(2))
	v.Write(str("a"))
	v.Write(str("b"))
	batch := append([]byte{'V'}, v.Bytes()...)

	clean := append(frame(batch), frame(append([]byte{'Z'}, uv(1)...))...)
	empty := frame(append([]byte{'Z'}, uv(0)...))
	errTerm := append(frame(batch), frame(append([]byte{'E'}, "context canceled"...))...)
	truncated := clean[:len(clean)-5]
	corrupt := bytes.Clone(clean)
	corrupt[9] ^= 0xFF
	badTag := frame([]byte{'Q', 1, 2, 3})
	badCount := append(frame(batch), frame(append([]byte{'Z'}, uv(9)...))...)
	trailing := append(bytes.Clone(clean), 0)
	return [][]byte{clean, empty, errTerm, truncated, corrupt, badTag, badCount, {}, []byte("garbage"), trailing}
}

// FuzzStreamDecode hammers the binary frame decoder: arbitrary bytes must
// never panic, never allocate past what the input carries, and decoding
// must be deterministic — the same bytes yield the same violations and the
// same terminal state twice. It is also differential: the record view
// (NextRecord) must accept exactly what Next accepts, yield as many
// records as Next yields violations, end in the same terminal state, and
// each record must decode to the violation Next returned in its place. A
// clean stream ends at its trailer: one more byte makes it an error.
func FuzzStreamDecode(f *testing.F) {
	for _, seed := range seedStreams() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vs1, err1 := DecodeAll(bytes.NewReader(data), Binary)
		vs2, err2 := DecodeAll(bytes.NewReader(data), Binary)
		if (err1 == nil) != (err2 == nil) || len(vs1) != len(vs2) {
			t.Fatalf("non-deterministic decode: (%d, %v) vs (%d, %v)", len(vs1), err1, len(vs2), err2)
		}
		rd := NewDecoder(bytes.NewReader(data), Binary)
		var recs []Record
		var rerr error
		for {
			rec, err := rd.NextRecord()
			if err != nil {
				if err != io.EOF {
					rerr = err
				}
				break
			}
			recs = append(recs, rec)
		}
		if fmt.Sprint(rerr) != fmt.Sprint(err1) || len(recs) != len(vs1) {
			t.Fatalf("record view diverges: %d records, %v; Next: %d violations, %v", len(recs), rerr, len(vs1), err1)
		}
		var br batchReader
		for i := range recs {
			var v Violation
			br.decode(&recs[i], &v)
			if !reflect.DeepEqual(v, vs1[i]) {
				t.Fatalf("record %d decodes to %+v, Next returned %+v", i, v, vs1[i])
			}
		}
		if err1 == nil {
			// A clean decode means a trailer was present and its count
			// matched; pin the invariant through the Decoder surface too.
			d := NewDecoder(bytes.NewReader(data), Binary)
			n := 0
			for {
				_, err := d.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("DecodeAll clean but Next failed: %v", err)
				}
				n++
			}
			if int64(n) != d.Count() {
				t.Fatalf("decoded %d violations, trailer says %d", n, d.Count())
			}
			if _, err := DecodeAll(bytes.NewReader(append(bytes.Clone(data), 0)), Binary); err == nil {
				t.Fatal("a byte after a clean stream's trailer decoded cleanly")
			}
		}
	})
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpus under
// testdata/fuzz/FuzzStreamDecode when STREAM_REGEN_CORPUS=1 — run it after
// changing the binary format, commit the result. Otherwise it verifies the
// committed corpus exists and parses.
func TestRegenerateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzStreamDecode")
	if os.Getenv("STREAM_REGEN_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seedStreams() {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("committed fuzz corpus missing (run with STREAM_REGEN_CORPUS=1): %v", err)
	}
	if len(ents) == 0 {
		t.Fatal("fuzz corpus directory is empty")
	}
}
