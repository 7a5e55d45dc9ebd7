package stream

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// benchCases are the decode and relay benchmarks' fixtures: 3,000 r
// tuples three to a key, where a tuple witnesses about three violations,
// and 21 to a key, as in cindbench's dense bank, where it witnesses about
// 21.
var benchCases = []struct {
	name   string
	perKey int
}{{"sparse", 3}, {"dense", 21}}

// benchStream is a complete stream in encoding enc of the violations of
// groupedViolations(rows, perKey), and its violation count.
func benchStream(b *testing.B, rows, perKey int, enc Encoding) ([]byte, int) {
	b.Helper()
	vs := groupedViolations(b, rows, perKey)
	return encodeStream(b, engineWriter, vs, enc, ""), len(vs)
}

// BenchmarkEncodeBinary measures a single node's binary encode of a
// report: Send, the declaration tables, the batch frames and their CRCs.
func BenchmarkEncodeBinary(b *testing.B) {
	for _, c := range benchCases {
		b.Run(c.name, func(b *testing.B) {
			vs := groupedViolations(b, 3000, c.perKey)
			b.ReportAllocs()
			var out countingWriter
			for i := 0; i < b.N; i++ {
				out = 0
				w := NewWriter(&out, nil, Binary, Options{})
				for _, v := range vs {
					w.Send(v)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(vs)*b.N), "ns/violation")
			b.ReportMetric(float64(out)/float64(len(vs)), "B/violation")
		})
	}
}

// BenchmarkDecodeBinary measures a client's full decode of a binary
// stream: frame CRCs, table and ref validation, interning and witness
// slabs. B/violation is the stream's size.
func BenchmarkDecodeBinary(b *testing.B) {
	for _, c := range benchCases {
		b.Run(c.name, func(b *testing.B) {
			raw, n := benchStream(b, 3000, c.perKey, Binary)
			benchDecode(b, raw, n, Binary)
		})
	}
}

// BenchmarkDecodeNDJSON measures a client's full decode of the same
// violations as an NDJSON stream: one line each, parsed, interned and
// carved out of the same witness slabs.
func BenchmarkDecodeNDJSON(b *testing.B) {
	raw, n := benchStream(b, 3000, 3, NDJSON)
	benchDecode(b, raw, n, NDJSON)
}

// benchDecode decodes raw as cindbench's client does: Next in a loop,
// appending to one output slice that every iteration reuses.
func benchDecode(b *testing.B, raw []byte, n int, enc Encoding) {
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	var got []Violation
	for i := 0; i < b.N; i++ {
		got = got[:0]
		d := NewDecoder(bytes.NewReader(raw), enc)
		for {
			v, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			got = append(got, v)
		}
		if len(got) != n {
			b.Fatalf("decoded %d of %d", len(got), n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/violation")
	b.ReportMetric(float64(len(raw))/float64(n), "B/violation")
}

// BenchmarkRelay measures a router's relay of one shard stream: record
// view, then the relay writer in each encoding — declarations and
// renumbered entries for Binary, one decode and a JSON encode per record
// otherwise. B/violation is the relayed stream's size.
func BenchmarkRelay(b *testing.B) {
	for _, c := range benchCases {
		raw, n := benchStream(b, 3000, c.perKey, Binary)
		for _, enc := range allEncodings {
			b.Run(fmt.Sprintf("%s/%s", c.name, enc), func(b *testing.B) {
				b.ReportAllocs()
				var out countingWriter
				for i := 0; i < b.N; i++ {
					out = 0
					d := NewDecoder(bytes.NewReader(raw), Binary)
					w := NewRelayWriter(&out, nil, enc)
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
				b.ReportMetric(float64(out)/float64(n), "B/violation")
			})
		}
	}
}

// countingWriter discards what it is written and counts the bytes.
type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}
