package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"testing"

	cind "cind"

	"cind/internal/stream"
)

// benchURL stands up the dense dirty bank workload behind the service and
// returns the violations endpoint. No session is built, so every stream
// runs the batched engine — the configuration where the HTTP layer's
// overhead is measured against the engine actually working. The warm-up
// stream is fully decoded, so every benchmarked stream's content is the
// content the differential tests verify.
func benchURL(b *testing.B) (*http.Client, string, int) {
	b.Helper()
	_, ts := startServer(b)
	c := ts.Client()
	loadBankHTTP(b, c, ts.URL, "bank")
	do(b, c, http.MethodPut, ts.URL+"/datasets/bank?relation=checking",
		denseDirtyCSV(1000, 25), http.StatusOK)
	url := ts.URL + "/datasets/bank/violations"
	n := len(streamViolations(b, c, url)) // warm-up, and the per-stream count
	if n == 0 {
		b.Fatal("benchmark workload is clean")
	}
	return c, url, n
}

// benchRoutedURL is benchURL's workload loaded through a router over two
// in-process shards: the same report, served by the scatter-gather path.
func benchRoutedURL(b *testing.B) (*http.Client, string, int) {
	b.Helper()
	_, rts, _ := startFleet(b, 2)
	c := rts.Client()
	loadBankHTTP(b, c, rts.URL, "bank")
	do(b, c, http.MethodPut, rts.URL+"/datasets/bank?relation=checking",
		denseDirtyCSV(1000, 25), http.StatusOK)
	url := rts.URL + "/datasets/bank/violations"
	n := len(streamViolations(b, c, url))
	if n == 0 {
		b.Fatal("benchmark workload is clean")
	}
	return c, url, n
}

func streamReq(b *testing.B, c *http.Client, url string, enc stream.Encoding) *http.Response {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Accept", enc.ContentType())
	resp, err := c.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	return resp
}

// drainCount reads one whole violation stream, counting served violations
// with a deliberately thin client: a frame walk for binary, a newline
// count for NDJSON, a field count for JSON. The benchmark client shares
// this machine with the server, so a full struct decode per violation
// would bill the server for client CPU; the thin drain measures the
// serving rate the endpoint sustains. Full client-side decoding is
// measured separately by the _decoded sub-benchmarks.
func drainCount(tb testing.TB, r io.Reader, enc stream.Encoding) int {
	tb.Helper()
	switch enc {
	case stream.Binary:
		br := bufio.NewReaderSize(r, 64<<10)
		for {
			var hdr [8]byte
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				tb.Fatalf("stream cut before trailer: %v", err)
			}
			n := int(binary.LittleEndian.Uint32(hdr[:4]))
			tag, err := br.ReadByte()
			if err != nil {
				tb.Fatalf("frame cut: %v", err)
			}
			switch tag {
			case 'B':
				if _, err := br.Discard(n - 1); err != nil {
					tb.Fatalf("frame cut: %v", err)
				}
			case 'Z':
				payload := make([]byte, n-1)
				if _, err := io.ReadFull(br, payload); err != nil {
					tb.Fatalf("trailer cut: %v", err)
				}
				c, _ := binary.Uvarint(payload)
				return int(c)
			default:
				tb.Fatalf("unexpected frame tag %q", tag)
			}
		}
	case stream.NDJSON:
		lines := chunkCount(tb, r, []byte("\n"))
		return lines - 1 // minus the trailer line
	default: // JSONArray: one "row": field per violation
		return chunkCount(tb, r, []byte(`"row":`))
	}
}

// chunkCount counts occurrences of pat across r, carrying a pattern-sized
// tail between reads so matches spanning chunk boundaries are counted.
func chunkCount(tb testing.TB, r io.Reader, pat []byte) int {
	tb.Helper()
	buf := make([]byte, 64<<10)
	carry := len(pat) - 1
	count, kept := 0, 0
	for {
		n, err := r.Read(buf[kept:])
		if n > 0 {
			count += bytes.Count(buf[:kept+n], pat)
			if keep := min(carry, kept+n); keep > 0 {
				copy(buf, buf[kept+n-keep:kept+n])
				kept = keep
			}
		}
		if err == io.EOF {
			return count
		}
		if err != nil {
			tb.Fatalf("drain: %v", err)
		}
	}
}

// BenchmarkServeViolationsThroughput measures the serving rate of the
// violations endpoint per negotiated encoding: one op is a full violation
// stream over HTTP — detection, encoding, chunked transfer — drained by a
// thin counting client. The <enc>_decoded variants additionally run
// stream.Decoder on the client side of the same core, giving the
// single-machine end-to-end rate. The routed_<enc> variants serve the same
// report through a router over two shards: a binary client gets the
// shards' records spliced, an NDJSON client has each record converted.
// Compare with BenchmarkDirectViolationsThroughput for the engine-only
// baseline; PERFORMANCE.md "Serving" and "Routed scans" tabulate them.
func BenchmarkServeViolationsThroughput(b *testing.B) {
	for _, enc := range []stream.Encoding{stream.Binary, stream.NDJSON} {
		b.Run("routed_"+enc.String(), func(b *testing.B) {
			c, url, n := benchRoutedURL(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp := streamReq(b, c, url, enc)
				got := drainCount(b, resp.Body, enc)
				resp.Body.Close()
				if got != n {
					b.Fatalf("stream yielded %d violations, want %d", got, n)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "violations/s")
		})
	}
	for _, enc := range []stream.Encoding{stream.NDJSON, stream.JSONArray, stream.Binary} {
		b.Run(enc.String(), func(b *testing.B) {
			c, url, n := benchURL(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp := streamReq(b, c, url, enc)
				got := drainCount(b, resp.Body, enc)
				resp.Body.Close()
				if got != n {
					b.Fatalf("stream yielded %d violations, want %d", got, n)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "violations/s")
		})
		b.Run(enc.String()+"_decoded", func(b *testing.B) {
			c, url, n := benchURL(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp := streamReq(b, c, url, enc)
				got := 0
				dec := stream.NewDecoder(resp.Body, enc)
				for {
					_, err := dec.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					got++
				}
				resp.Body.Close()
				if got != n {
					b.Fatalf("stream yielded %d violations, want %d", got, n)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "violations/s")
		})
	}
}

// BenchmarkDirectViolationsThroughput is the in-process baseline: the same
// workload drained through Checker.Violations directly, no HTTP, no
// encoding.
func BenchmarkDirectViolationsThroughput(b *testing.B) {
	chk, _ := bankChecker(b)
	in := chk.Database().Instance("checking")
	for _, rec := range parseCSVRows(b, denseDirtyCSV(1000, 25)) {
		in.Insert(cind.Consts(rec...))
	}
	ctx := context.Background()
	n := 0
	for range chk.Violations(ctx) {
		n++ // warm-up count
	}
	if n == 0 {
		b.Fatal("benchmark workload is clean")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		for _, err := range chk.Violations(ctx) {
			if err != nil {
				b.Fatal(err)
			}
			got++
		}
		if got != n {
			b.Fatalf("stream yielded %d violations, want %d", got, n)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "violations/s")
}
