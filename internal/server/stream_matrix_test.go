package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"cind"
	"cind/internal/stream"
)

var streamEncodings = []stream.Encoding{stream.NDJSON, stream.JSONArray, stream.Binary}

// TestStreamEncodingMatrixBank: every negotiated encoding returns the
// NDJSON stream violation-for-violation, in order, on the bank fixtures —
// pre-Apply (engine path) and post-Apply (resident session).
func TestStreamEncodingMatrixBank(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	base := ts.URL + "/datasets/bank"

	ref := streamViolations(t, c, base+"/violations")
	if len(ref) != 2 {
		t.Fatalf("bank fixtures yield %d violations, want 2", len(ref))
	}
	for _, enc := range streamEncodings {
		assertSameOrder(t, "pre-apply "+enc.String(),
			streamViolationsEnc(t, c, base+"/violations", enc), ref)
	}

	// An empty delta batch builds the resident session; the maintained
	// report is deterministic, so order must still match across encodings.
	postDeltas(t, c, base+"/deltas", nil, http.StatusOK)
	ref = streamViolations(t, c, base+"/violations")
	for _, enc := range streamEncodings {
		assertSameOrder(t, "post-apply "+enc.String(),
			streamViolationsEnc(t, c, base+"/violations", enc), ref)
		for _, limit := range []int{1, 2} {
			url := fmt.Sprintf("%s/violations?limit=%d", base, limit)
			assertSameOrder(t, fmt.Sprintf("%s limit=%d", enc, limit),
				streamViolationsEnc(t, c, url, enc), ref[:limit])
		}
	}
}

// memoCounts reads the server's body-memo counters.
func memoCounts(s *Server) (hits, fills int64) { return s.memos.hits.Value(), s.memos.fills.Value() }

// assertMemo requires the body-memo counters to read hits and fills.
func assertMemo(t testing.TB, s *Server, label string, hits, fills int64) {
	t.Helper()
	if h, f := memoCounts(s); h != hits || f != fills {
		t.Fatalf("%s: stream_memo_hits %d, stream_memo_fills %d; want %d and %d", label, h, f, hits, fills)
	}
}

// TestStreamMemoMatrix: before and after the first Apply, a version's
// first unlimited read keeps nothing; then in every encoding a limited read
// neither fills the memo nor hits it, the next unlimited read fills it, and
// the one after is a hit whose body equals the fill's byte for byte. The report crosses flush boundaries,
// so the kept bodies span several frames or writes. /metrics publishes
// the counters, and the bytes the hits wrote.
func TestStreamMemoMatrix(t *testing.T) {
	s, ts := startServer(t)
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	do(t, c, http.MethodPut, ts.URL+"/datasets/bank?relation=checking", denseDirtyCSV(600, 20), http.StatusOK)
	url := ts.URL + "/datasets/bank/violations"

	var hits, fills, hitBytes int64
	for _, phase := range []string{"pre-apply", "post-apply"} {
		if phase == "post-apply" {
			postDeltas(t, c, ts.URL+"/datasets/bank/deltas", nil, http.StatusOK)
		}
		rawStream(t, c, url, stream.NDJSON)
		assertMemo(t, s, phase+" first read", hits, fills)
		var ref []violationWire
		for _, enc := range streamEncodings {
			label := phase + " " + enc.String()
			if got := streamViolationsEnc(t, c, url+"?limit=3", enc); len(got) != 3 {
				t.Fatalf("%s: limited read yielded %d violations, want 3", label, len(got))
			}
			assertMemo(t, s, label+" limited", hits, fills)
			fill := rawStream(t, c, url, enc)
			fills++
			assertMemo(t, s, label+" fill", hits, fills)
			hit := rawStream(t, c, url, enc)
			hits, hitBytes = hits+1, hitBytes+int64(len(hit))
			assertMemo(t, s, label+" hit", hits, fills)
			if !bytes.Equal(hit, fill) {
				t.Fatalf("%s: hit body (%d bytes) differs from its fill (%d bytes)", label, len(hit), len(fill))
			}
			got, err := stream.DecodeAll(bytes.NewReader(hit), enc)
			if err != nil {
				t.Fatalf("%s: decode hit: %v", label, err)
			}
			if ref == nil {
				ref = got
			}
			assertSameOrder(t, label, got, ref)
		}
		if len(ref) < 5000 {
			t.Fatalf("%s: report has %d violations; too few to cross flush boundaries", phase, len(ref))
		}
	}
	m := metricsMap(t, c, ts.URL)
	for name, want := range map[string]int64{"stream_memo_hits": hits, "stream_memo_fills": fills, "stream_memo_bytes": hitBytes} {
		if got, _ := m[name].(float64); int64(got) != want {
			t.Fatalf("/metrics %s = %v, want %d", name, m[name], want)
		}
	}
}

// TestStreamMemoFillsAfterEachWrite: after a delta batch, a CSV load and a
// constraint PUT, the next read of the dataset carries the new report and
// keeps nothing, and the one after in each encoding is a fill, never a hit
// on the body kept before the write.
func TestStreamMemoFillsAfterEachWrite(t *testing.T) {
	s, ts := startServer(t)
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	base := ts.URL + "/datasets/bank"
	twin, _ := bankChecker(t)
	ctx := context.Background()

	var hits, fills int64
	read := func(label string, want []violationWire) {
		t.Helper()
		got := streamViolations(t, c, base+"/violations")
		assertMemo(t, s, label+" first read", hits, fills)
		assertSameOrder(t, label+" first read", got, want)
		for _, enc := range []stream.Encoding{stream.NDJSON, stream.Binary} {
			got := streamViolationsEnc(t, c, base+"/violations", enc)
			fills++
			assertMemo(t, s, label+" "+enc.String()+" fill", hits, fills)
			assertSameOrder(t, label+" "+enc.String(), got, want)
			streamViolationsEnc(t, c, base+"/violations", enc)
			hits++
			assertMemo(t, s, label+" "+enc.String()+" hit", hits, fills)
		}
	}
	read("initial", collectDirect(t, twin))

	repair := []deltaWire{
		{Op: "-", Rel: "interest", Tuple: []string{"EDI", "UK", "checking", "10.5%"}},
		{Op: "+", Rel: "interest", Tuple: []string{"EDI", "UK", "checking", "1.5%"}},
	}
	postDeltas(t, c, base+"/deltas", repair, http.StatusOK)
	if _, err := twin.Apply(ctx,
		cind.DeleteDelta("interest", cind.Consts(repair[0].Tuple...)),
		cind.InsertDelta("interest", cind.Consts(repair[1].Tuple...))); err != nil {
		t.Fatal(err)
	}
	read("after delta", collectDirect(t, twin))

	csvRows := denseDirtyCSV(60, 6)
	do(t, c, http.MethodPut, base+"?relation=checking", csvRows, http.StatusOK)
	var inserts []cind.Delta
	for _, row := range parseCSVRows(t, csvRows) {
		inserts = append(inserts, cind.InsertDelta("checking", cind.Consts(row...)))
	}
	if _, err := twin.Apply(ctx, inserts...); err != nil {
		t.Fatal(err)
	}
	read("after CSV", collectDirect(t, twin))

	do(t, c, http.MethodPut, base+"/constraints", []byte(bankSpec(t)), http.StatusOK)
	read("after constraints", nil)
}

// TestStreamEncodingMatrixGenerated runs the same matrix over a generated
// workload large enough to cross flush boundaries and multi-frame binary
// streams. It is the one served test that creates its dataset at
// ?parallel=1, so the engine's no-helper stream stays covered over HTTP;
// every other served test streams from the default pool.
func TestStreamEncodingMatrixGenerated(t *testing.T) {
	spec, csvs := generatedFixture(t, 21)
	_, ts := startServer(t)
	c := ts.Client()
	base := ts.URL + "/datasets/gen"
	do(t, c, http.MethodPut, base+"/constraints?parallel=1", []byte(spec), http.StatusOK)
	rels := make([]string, 0, len(csvs))
	for rel := range csvs {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		do(t, c, http.MethodPut, base+"?relation="+rel, csvs[rel], http.StatusOK)
	}
	ref := streamViolations(t, c, base+"/violations")
	if len(ref) == 0 {
		t.Fatal("generated workload produced no violations; matrix lost its point")
	}
	for _, enc := range streamEncodings {
		assertSameOrder(t, "generated "+enc.String(),
			streamViolationsEnc(t, c, base+"/violations", enc), ref)
	}
}

// TestStreamTrailerOverHTTP reads the raw NDJSON body: the stream must end
// with the {"done":true,"count":N} trailer line, N equal to the violation
// lines before it — the complete-vs-truncated signal the satellite fix
// introduces.
func TestStreamTrailerOverHTTP(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")

	body := do(t, c, http.MethodGet, ts.URL+"/datasets/bank/violations", nil, http.StatusOK)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("stream has %d lines, want 2 violations + trailer:\n%s", len(lines), body)
	}
	var trailer struct {
		Done  bool  `json:"done"`
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatal(err)
	}
	if !trailer.Done || trailer.Count != 2 {
		t.Fatalf("trailer = %+v, want done with count 2", trailer)
	}
}

// TestStreamLimitZero pins the ?limit=0 semantics: unlimited, exactly like
// WithLimit(0) — not an empty stream, not an error.
func TestStreamLimitZero(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	base := ts.URL + "/datasets/bank/violations"

	full := streamViolations(t, c, base)
	zero := streamViolations(t, c, base+"?limit=0")
	assertSameOrder(t, "limit=0", zero, full)
	if len(zero) == 0 {
		t.Fatal("limit=0 returned an empty stream; it documents unlimited")
	}
}

// TestStreamDisconnectPerEncoding is the goroutine-leak test across the
// encoding matrix, on a single node and through a 2-shard router: a client
// that breaks mid-stream in any encoding must leave no engine workers,
// encoder or handler goroutines behind, and the server must serve
// complete streams afterwards.
func TestStreamDisconnectPerEncoding(t *testing.T) {
	type served struct {
		name string
		s    *Server
		c    *http.Client
		url  string
	}
	var modes []served
	for _, mode := range serveModes {
		s, ts := mode.start(t)
		c := ts.Client()
		loadBankHTTP(t, c, ts.URL, "bank")
		do(t, c, http.MethodPut, ts.URL+"/datasets/bank?relation=checking",
			denseDirtyCSV(4000, 100), http.StatusOK)
		url := ts.URL + "/datasets/bank/violations"
		// A first read, so each abandoned stream would keep its body had
		// it ended clean.
		streamViolations(t, c, url)
		modes = append(modes, served{mode.name, s, c, url})
	}

	for _, enc := range streamEncodings {
		t.Run(enc.String(), func(t *testing.T) {
			for _, m := range modes {
				t.Run(m.name, func(t *testing.T) {
					c, url := m.c, m.url
					// Warm up the transport, then take the goroutine baseline.
					if got := streamViolationsEnc(t, c, url+"?limit=1", enc); len(got) != 1 {
						t.Fatalf("warm-up stream yielded %d violations, want 1", len(got))
					}
					before := runtime.NumGoroutine()

					ctx, cancel := context.WithCancel(context.Background())
					req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
					if err != nil {
						t.Fatal(err)
					}
					req.Header.Set("Accept", enc.ContentType())
					resp, err := c.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					// Read one chunk mid-stream, then break the connection
					// while the engine is still enumerating pairs.
					br := bufio.NewReader(resp.Body)
					if _, err := br.ReadByte(); err != nil {
						t.Fatalf("no first byte before the disconnect: %v", err)
					}
					cancel()
					resp.Body.Close()
					c.CloseIdleConnections()

					// The total alone can hide a leak behind the connections
					// the disconnect closed, so count encoders by name too.
					deadline := time.Now().Add(5 * time.Second)
					for (runtime.NumGoroutine() > before || streamEncoders() > 0) && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					if g := runtime.NumGoroutine(); g > before {
						t.Fatalf("%s disconnect leaked goroutines: %d before, %d after", enc, before, g)
					}
					if n := streamEncoders(); n > 0 {
						t.Fatalf("%s disconnect leaked %d stream encoder goroutines", enc, n)
					}

					// The server must still serve this encoding completely.
					if got := streamViolationsEnc(t, c, url+"?limit=3", enc); len(got) != 3 {
						t.Fatalf("post-disconnect stream yielded %d violations, want 3", len(got))
					}
					// Neither the abandoned stream nor a limited one kept
					// a body.
					assertMemo(t, m.s, "after disconnect", 0, 0)
				})
			}
		})
	}
}

// streamEncoders counts the goroutines running a stream.Writer's encoder;
// with no stream in flight there are none.
func streamEncoders() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("internal/stream.(*Writer[...]).run("))
}

// TestDeltasNotDurableIsNotAnError is the double-apply regression test: a
// delta batch that applies in memory but fails the WAL append must answer
// 200 with "durable": false and the X-Applied header — never an error
// status a client would retry — and the batch must be visible in the
// stream.
func TestDeltasNotDurableIsNotAnError(t *testing.T) {
	dir := t.TempDir()
	s, ts := startDurable(t, dir, Options{})
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	base := ts.URL + "/datasets/bank"

	// Healthy durable mode reports durable: true.
	diff := postDeltas(t, c, base+"/deltas",
		[]deltaWire{{Op: "-", Rel: "interest", Tuple: []string{"EDI", "UK", "checking", "10.5%"}}},
		http.StatusOK)
	if diff.Durable == nil || !*diff.Durable {
		t.Fatalf("healthy durable apply: durable = %v, want true", diff.Durable)
	}

	// Fail the WAL: close the dataset's log handle; the next append errors.
	d, ok := s.dataset("bank")
	if !ok {
		t.Fatal("no dataset")
	}
	d.(*local).closePersist()

	body, err := json.Marshal(deltasRequest{Deltas: []deltaWire{
		{Op: "+", Rel: "interest", Tuple: []string{"EDI", "UK", "checking", "10.5%"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/deltas", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded apply = %d, want 200 (an error status invites a double-applying retry)", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Applied"); got != "true" {
		t.Fatalf("X-Applied = %q, want true", got)
	}
	var degraded diffWire
	if err := json.NewDecoder(resp.Body).Decode(&degraded); err != nil {
		t.Fatal(err)
	}
	if degraded.Durable == nil || *degraded.Durable {
		t.Fatalf("degraded apply: durable = %v, want false", degraded.Durable)
	}
	if degraded.StorageError == "" || !strings.Contains(degraded.StorageError, "not durably logged") {
		t.Fatalf("storage_error = %q, want the WAL failure", degraded.StorageError)
	}
	if degraded.Applied != 1 {
		t.Fatalf("applied = %d, want 1", degraded.Applied)
	}

	// The batch is live: the tuple's reinsertion is visible to a stream.
	if got := streamViolations(t, c, base+"/violations"); len(got) == 0 {
		t.Fatal("applied-but-not-durable batch not visible in the stream")
	}

	// The degradation is counted.
	m := metricsMap(t, c, ts.URL)
	if n, _ := m["wal_append_errors"].(float64); n != 1 {
		t.Fatalf("wal_append_errors = %v, want 1", m["wal_append_errors"])
	}
}

// TestPutDataNotDurableIsNotAnError: same contract on the CSV-load path —
// rows live in memory, WAL failed, response is 200 + durable: false.
func TestPutDataNotDurableIsNotAnError(t *testing.T) {
	dir := t.TempDir()
	s, ts := startDurable(t, dir, Options{})
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")

	d, ok := s.dataset("bank")
	if !ok {
		t.Fatal("no dataset")
	}
	d.(*local).closePersist()

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/datasets/bank?relation=checking",
		bytes.NewReader(denseDirtyCSV(10, 2)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded CSV load = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Applied"); got != "true" {
		t.Fatalf("X-Applied = %q, want true", got)
	}
	var out struct {
		Durable      *bool  `json:"durable"`
		StorageError string `json:"storage_error"`
		Tuples       int    `json:"tuples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Durable == nil || *out.Durable {
		t.Fatalf("degraded CSV load: durable = %v, want false", out.Durable)
	}
	if out.StorageError == "" {
		t.Fatal("degraded CSV load carries no storage_error")
	}
	if out.Tuples == 0 {
		t.Fatal("rows not live after degraded load")
	}
}

// TestLatencyHistograms: instrumented endpoints publish log-bucketed
// latency quantiles under latency_us once they have served traffic.
func TestLatencyHistograms(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	for i := 0; i < 3; i++ {
		streamViolations(t, c, ts.URL+"/datasets/bank/violations")
	}

	m := metricsMap(t, c, ts.URL)
	lat, ok := m["latency_us"].(map[string]any)
	if !ok {
		t.Fatalf("latency_us missing or malformed: %T", m["latency_us"])
	}
	vio, ok := lat["violations"].(map[string]any)
	if !ok {
		t.Fatalf("latency_us.violations missing: %v", lat)
	}
	count, _ := vio["count"].(float64)
	if count != 3 {
		t.Fatalf("violations latency count = %v, want 3", vio["count"])
	}
	p50, _ := vio["p50_us"].(float64)
	p99, _ := vio["p99_us"].(float64)
	mx, _ := vio["max_us"].(float64)
	if p50 > p99 || p99 > mx {
		t.Fatalf("quantiles out of order: p50=%v p99=%v max=%v", p50, p99, mx)
	}
	if _, ok := lat["put_data"]; !ok {
		t.Fatalf("put_data histogram missing after CSV uploads: %v", lat)
	}
}

// TestLatencyHistogramBuckets unit-tests the histogram math: bucketing,
// quantile upper bounds, max tracking.
func TestLatencyHistogramBuckets(t *testing.T) {
	h := new(latencyHistogram)
	if got := h.quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %d", got)
	}
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(20 * time.Millisecond)
	}
	if p50 := h.quantile(0.50); p50 < 100 || p50 > 255 {
		t.Fatalf("p50 = %dus, want the [100, 255] bucket bound", p50)
	}
	if p99 := h.quantile(0.99); p99 < 20000 {
		t.Fatalf("p99 = %dus, want >= 20000", p99)
	}
	if mx := h.maxUS.Load(); mx != 20000 {
		t.Fatalf("max = %dus, want 20000", mx)
	}
	snap := h.snapshot()
	if snap["count"] != 100 {
		t.Fatalf("count = %d", snap["count"])
	}
	if snap["p99_us"] > snap["max_us"] {
		t.Fatalf("p99 %d exceeds max %d", snap["p99_us"], snap["max_us"])
	}
}

// TestStreamDrainErrorRecord: Drain mid-stream must surface the terminal
// error record in the negotiated encoding — flushed, so the client sees
// the cancellation rather than a clean-looking EOF.
func TestStreamDrainErrorRecord(t *testing.T) {
	for _, enc := range streamEncodings {
		t.Run(enc.String(), func(t *testing.T) {
			s, ts := startServer(t)
			c := ts.Client()
			loadBankHTTP(t, c, ts.URL, "bank")
			do(t, c, http.MethodPut, ts.URL+"/datasets/bank?relation=checking",
				denseDirtyCSV(4000, 100), http.StatusOK)
			// A first read, so the drained stream would keep its body had
			// it ended clean.
			streamViolations(t, c, ts.URL+"/datasets/bank/violations")

			req, err := http.NewRequest(http.MethodGet, ts.URL+"/datasets/bank/violations", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Accept", enc.ContentType())
			resp, err := c.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			if _, err := br.ReadByte(); err != nil {
				t.Fatalf("no first byte before Drain: %v", err)
			}
			if err := br.UnreadByte(); err != nil {
				t.Fatal(err)
			}
			s.Drain()

			dec := stream.NewDecoder(br, enc)
			sawRemote := false
			for {
				_, err := dec.Next()
				if err == nil {
					continue
				}
				var re *stream.RemoteError
				if asRemote(err, &re) {
					sawRemote = true
				} else {
					t.Logf("terminal: %v", err)
				}
				break
			}
			if !sawRemote {
				t.Fatalf("%s: Drain did not surface a terminal error record", enc)
			}
			// The stream Drain cut short kept no body.
			assertMemo(t, s, "after Drain", 0, 0)
		})
	}
}

func asRemote(err error, re **stream.RemoteError) bool {
	r, ok := err.(*stream.RemoteError)
	if ok {
		*re = r
	}
	return ok
}
