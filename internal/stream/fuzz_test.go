package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
// corners: clean in one frame and across two, error-terminated, truncated,
// corrupt, a clean stream with a byte after its trailer, and batches that
// break the tables — refs to undeclared ids, a ref to an id declared only
// in a later frame, a cut-short tuple declaration, a re-declared tuple, and
// a batch in the retired one-frame-per-violation format.
func seedStreams() []seed {
	// A constraint and a two-value tuple, then one violation citing them:
	// constraint 0, row 0 (zigzag), one witness tuple, tuple 0.
	con := append(append(append([]byte{declConstraint}, str("cfd")...), str("phi")...), str("r")...)
	tup := append(append(append([]byte{declTuple}, uv(2)...), str("a")...), str("b")...)
	viol := []byte{entryViolation, 0, 0, 1, 0}
	batch := func(entries ...[]byte) []byte { return frame(append([]byte{'B'}, bytes.Join(entries, nil)...)) }
	trailer := func(n uint64) []byte { return frame(append([]byte{'Z'}, uv(n)...)) }
	stream := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

	clean := stream(batch(con, tup, viol), trailer(1))
	corrupt := bytes.Clone(clean)
	corrupt[9] ^= 0xFF
	return []seed{
		{"clean", clean, ""},
		{"empty", trailer(0), ""},
		{"error-terminated", stream(batch(con, tup, viol), frame(append([]byte{'E'}, "context canceled"...))), "server reported"},
		{"truncated", clean[:len(clean)-5], "truncated"},
		{"corrupt", corrupt, "CRC mismatch"},
		{"bad-tag", frame([]byte{'Q', 1, 2, 3}), "unknown frame tag"},
		{"bad-count", stream(batch(con, tup, viol), trailer(9)), "trailer count"},
		{"nothing", []byte{}, "truncated"},
		{"garbage", []byte("garbage"), "truncated"},
		{"trailing-byte", append(bytes.Clone(clean), 0), "after the stream's terminal record"},
		// The second frame cites what the first declared, and a pair
		// witness cites one tuple twice.
		{"two-frames", stream(batch(con, tup, viol), batch([]byte{entryViolation, 0, 2, 2, 0, 0}), trailer(2)), ""},
		{"undeclared-constraint", stream(batch(tup, viol), trailer(1)), "names no declared constraint"},
		{"undeclared-tuple", stream(batch(con, viol), trailer(1)), "names no declared tuple"},
		{"declared-later", stream(batch(con, viol), batch(tup, viol), trailer(2)), "names no declared tuple"},
		{"cut-tuple", stream(batch(con, tup[:len(tup)-2]), trailer(0)), "bad uvarint"},
		// A source that copies a tuple declares it twice: legal, and both
		// ids decode to the same values.
		{"redeclared-tuple", stream(batch(con, tup, tup, []byte{entryViolation, 0, 0, 2, 0, 1}), trailer(1)), ""},
		{"retired-format", stream(frame(append([]byte{'V'}, append(append(append(str("cfd"), str("phi")...), str("r")...), 0, 1, 2, 1, 'a', 1, 'b')...)), trailer(1)), "unknown frame tag 0x56"},
	}
}

// seed is one hand-built binary stream and how its decode ends: "" for a
// clean end, else a fragment of the terminal error.
type seed struct {
	name string
	data []byte
	err  string
}

// TestSeedStreams pins how each seed stream's decode ends, so the fuzz
// corpus keeps covering what its names say.
func TestSeedStreams(t *testing.T) {
	for _, sd := range seedStreams() {
		_, err := DecodeAll(bytes.NewReader(sd.data), Binary)
		if sd.err == "" && err != nil || sd.err != "" && (err == nil || !strings.Contains(err.Error(), sd.err)) {
			t.Errorf("%s: decode ends in %v, want %q", sd.name, err, sd.err)
		}
	}
}

// sameViolations reports whether two decodes agree violation for
// violation, field for field; a nil and an empty witness are alike.
func sameViolations(a, b []Violation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Kind != y.Kind || x.Constraint != y.Constraint || x.Relation != y.Relation || x.Row != y.Row || len(x.Witness) != len(y.Witness) {
			return false
		}
		for j := range x.Witness {
			if !slices.Equal(x.Witness[j], y.Witness[j]) {
				return false
			}
		}
	}
	return true
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
	for _, sd := range seedStreams() {
		f.Add(sd.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vs1, err1 := DecodeAll(bytes.NewReader(data), Binary)
		vs2, err2 := DecodeAll(bytes.NewReader(data), Binary)
		if (err1 == nil) != (err2 == nil) || !sameViolations(vs1, vs2) {
			t.Fatalf("non-deterministic decode: (%d, %v) vs (%d, %v)", len(vs1), err1, len(vs2), err2)
		}
		recs, rerr := readRecords(data)
		if fmt.Sprint(rerr) != fmt.Sprint(err1) || len(recs) != len(vs1) {
			t.Fatalf("record view diverges: %d records, %v; Next: %d violations, %v", len(recs), rerr, len(vs1), err1)
		}
		var br batchReader
		for i := range recs {
			var v Violation
			br.decodeRecord(&recs[i], &v)
			if !sameViolations([]Violation{v}, vs1[i:i+1]) {
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

// readRecords reads a binary stream through the record view: its records,
// and its terminal result (nil for a clean end).
func readRecords(data []byte) ([]Record, error) {
	d := NewDecoder(bytes.NewReader(data), Binary)
	var recs []Record
	for {
		rec, err := d.NextRecord()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// FuzzRelay pins the relay's renumbering: for any stream that decodes
// cleanly, its records relayed through a binary relay writer make a stream
// that decodes cleanly to exactly the violations the input decodes to.
func FuzzRelay(f *testing.F) {
	for _, sd := range seedStreams() {
		f.Add(sd.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, err := DecodeAll(bytes.NewReader(data), Binary)
		if err != nil {
			return
		}
		recs, err := readRecords(data)
		if err != nil {
			t.Fatalf("Next decodes cleanly, the record view fails: %v", err)
		}
		var buf bytes.Buffer
		w := NewRelayWriter(&buf, nil, Binary)
		for _, rec := range recs {
			w.Send(rec)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeAll(&buf, Binary)
		if err != nil {
			t.Fatalf("relayed stream: %v", err)
		}
		if !sameViolations(got, want) {
			t.Fatalf("relayed stream decodes to %+v, input to %+v", got, want)
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
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, sd := range seedStreams() {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", sd.data)
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
