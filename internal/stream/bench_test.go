package stream

import (
	"bytes"
	"io"
	"testing"
)

// benchStream is a complete binary stream of the violations of
// testViolations(rows), and its violation count.
func benchStream(b *testing.B, rows int) ([]byte, int) {
	b.Helper()
	vs := testViolations(b, rows)
	return encodeStream(b, engineWriter, vs, Binary, ""), len(vs)
}

// BenchmarkDecodeBinary measures a client's full decode of a binary
// stream: frame CRCs, record validation, interning and witness slabs.
func BenchmarkDecodeBinary(b *testing.B) {
	raw, n := benchStream(b, 3000)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := DecodeAll(bytes.NewReader(raw), Binary)
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
	raw, n := benchStream(b, 3000)
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
