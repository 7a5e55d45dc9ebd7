package stream

import (
	"bytes"
	"io"
	"testing"
)

// benchStream is a complete stream in encoding enc of the violations of
// testViolations(rows), and its violation count.
func benchStream(b *testing.B, rows int, enc Encoding) ([]byte, int) {
	b.Helper()
	vs := testViolations(b, rows)
	return encodeStream(b, engineWriter, vs, enc, ""), len(vs)
}

// BenchmarkDecodeBinary measures a client's full decode of a binary
// stream: frame CRCs, record validation, interning and witness slabs.
func BenchmarkDecodeBinary(b *testing.B) {
	raw, n := benchStream(b, 3000, Binary)
	benchDecode(b, raw, n, Binary)
}

// BenchmarkDecodeNDJSON measures a client's full decode of the same
// violations as an NDJSON stream: one line each, parsed, interned and
// carved out of the same witness slabs.
func BenchmarkDecodeNDJSON(b *testing.B) {
	raw, n := benchStream(b, 3000, NDJSON)
	benchDecode(b, raw, n, NDJSON)
}

func benchDecode(b *testing.B, raw []byte, n int, enc Encoding) {
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := DecodeAll(bytes.NewReader(raw), enc)
		if err != nil || len(got) != n {
			b.Fatalf("decoded %d of %d: %v", len(got), n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/violation")
}

// BenchmarkRelay measures a router's relay of one shard stream: record
// view, then the relay writer in each encoding — a splice for Binary, one
// decode and a JSON encode per record otherwise.
func BenchmarkRelay(b *testing.B) {
	raw, n := benchStream(b, 3000, Binary)
	for _, enc := range allEncodings {
		b.Run(enc.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := NewDecoder(bytes.NewReader(raw), Binary)
				w := NewRelayWriter(io.Discard, nil, enc)
				for {
					rec, err := d.NextRecord()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					w.Send(rec)
				}
				if err := w.Close(); err != nil || w.Count() != int64(n) {
					b.Fatalf("relayed %d of %d: %v", w.Count(), n, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/violation")
		})
	}
}
