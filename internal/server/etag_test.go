package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cind/internal/stream"
)

// condRead GETs a violation stream in enc, sending inm as If-None-Match
// when it is non-empty, and returns the status, the response headers and
// the body.
func condRead(t testing.TB, c *http.Client, url string, enc stream.Encoding, inm string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", enc.ContentType())
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// notModifiedCount reads a server's stream_not_modified counter.
func notModifiedCount(s *Server) int64 { return s.nNotModified.Value() }

// TestStreamETagNotModified: an unlimited read of a recurring version
// carries a tag per encoding and Vary: Accept; a read naming the current
// tag answers 304 with no body and counts it; a limited read carries no
// tag and ignores If-None-Match; a write, a re-PUT of the constraints and
// a restarted server each retire the old tags.
func TestStreamETagNotModified(t *testing.T) {
	s, ts := startServer(t)
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	url := ts.URL + "/datasets/bank/violations"

	code, h, body := condRead(t, c, url, stream.NDJSON, "")
	tag := h.Get("ETag")
	if code != http.StatusOK || tag == "" || h.Get("Vary") != "Accept" {
		t.Fatalf("first read: %d, ETag %q, Vary %q; want 200, a tag and Accept", code, tag, h.Get("Vary"))
	}
	code, h, empty := condRead(t, c, url, stream.NDJSON, tag)
	if code != http.StatusNotModified || len(empty) != 0 || h.Get("ETag") != tag {
		t.Fatalf("If-None-Match %s: %d with %d bytes and ETag %q; want an empty 304 with the same tag", tag, code, len(empty), h.Get("ETag"))
	}
	if n := notModifiedCount(s); n != 1 {
		t.Fatalf("stream_not_modified = %d, want 1", n)
	}
	if _, h, again := condRead(t, c, url, stream.NDJSON, `"other", `+tag); h.Get("ETag") != tag || len(again) != 0 {
		t.Fatal("a tag list naming the current tag did not answer 304")
	}

	tags := map[string]bool{tag: true}
	for _, enc := range []stream.Encoding{stream.JSONArray, stream.Binary} {
		code, h, _ := condRead(t, c, url, enc, tag)
		if code != http.StatusOK || tags[h.Get("ETag")] || h.Get("ETag") == "" {
			t.Fatalf("%s read naming the NDJSON tag: %d, ETag %q; want 200 and a tag of its own", enc, code, h.Get("ETag"))
		}
		tags[h.Get("ETag")] = true
	}

	code, h, limited := condRead(t, c, url+"?limit=1", stream.NDJSON, tag)
	if code != http.StatusOK || h.Get("ETag") != "" || bytes.Count(limited, []byte("\n")) != 2 {
		t.Fatalf("limited read: %d, ETag %q, body %s; want 200, no tag, one violation and the trailer", code, h.Get("ETag"), limited)
	}

	// A write retires the tag: the same header now gets the new report.
	wire, _ := bankDeltaBatches(t)
	postDeltas(t, c, ts.URL+"/datasets/bank/deltas", wire[0], http.StatusOK)
	code, h, changed := condRead(t, c, url, stream.NDJSON, tag)
	if code != http.StatusOK || tags[h.Get("ETag")] || bytes.Equal(changed, body) {
		t.Fatalf("read after a delta naming the old tag: %d, ETag %q; want 200 with a new tag and report", code, h.Get("ETag"))
	}
	tags[h.Get("ETag")] = true
	if want := rawStream(t, c, url, stream.NDJSON); !bytes.Equal(changed, want) {
		t.Fatalf("200 after the delta differs from the next read:\n%s\n%s", changed, want)
	}

	// A re-PUT makes a new dataset instance, and another server another
	// nonce: neither repeats a tag, though each reports the same data.
	loadBankHTTP(t, c, ts.URL, "bank")
	_, other := startServer(t)
	loadBankHTTP(t, other.Client(), other.URL, "bank")
	for _, base := range []string{ts.URL, other.URL} {
		code, h, again := condRead(t, c, base+"/datasets/bank/violations", stream.NDJSON, tag)
		if code != http.StatusOK || tags[h.Get("ETag")] || !bytes.Equal(again, body) {
			t.Fatalf("%s: fresh dataset answered %d with ETag %q (seen: %v)", base, code, h.Get("ETag"), tags)
		}
		tags[h.Get("ETag")] = true
	}
}

// TestBackendStreamCarriesNoETag: a SQL-backend read never recurs, so it
// carries no tag and answers If-None-Match with the full stream.
func TestBackendStreamCarriesNoETag(t *testing.T) {
	s, ts := startBackendServer(t, "mem:")
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	url := ts.URL + "/datasets/bank/violations"
	want := rawStream(t, c, url, stream.NDJSON)
	code, h, body := condRead(t, c, url, stream.NDJSON, "*")
	if code != http.StatusOK || h.Get("ETag") != "" || !bytes.Equal(body, want) {
		t.Fatalf("backend read: %d, ETag %q; want 200, no tag, the full stream", code, h.Get("ETag"))
	}
	if n := notModifiedCount(s); n != 0 {
		t.Fatalf("stream_not_modified = %d, want 0", n)
	}
}

// routerMemo reads a router's own memo counters and its shards'
// stream_not_modified total.
func routerMemo(t testing.TB, rt *Server, shards []*httptest.Server) (hits, fills, notModified int64) {
	t.Helper()
	for _, sh := range shards {
		m := metricsMap(t, sh.Client(), sh.URL)
		n, _ := m["stream_not_modified"].(float64)
		notModified += int64(n)
	}
	h, f := memoCounts(rt)
	return h, f, notModified
}

// TestRouterMemoMatchesSingleNode: in every encoding a router's third read
// of an unchanged dataset is served from its kept body after every shard
// answers 304, byte-identical to the fill and equal to a single node's
// report; a delta retires the body, and the next reads equal the single
// node's again. The router's tag answers its own If-None-Match.
func TestRouterMemoMatchesSingleNode(t *testing.T) {
	rt, rts, shards := startFleet(t, 2)
	rc := rts.Client()
	loadBankHTTP(t, rc, rts.URL, "bank")
	do(t, rc, http.MethodPut, rts.URL+"/datasets/bank?relation=checking", denseDirtyCSV(600, 20), http.StatusOK)
	tc, turl := startPrimedTwin(t, "bank")
	do(t, tc, http.MethodPut, turl+"/datasets/bank?relation=checking", denseDirtyCSV(600, 20), http.StatusOK)
	routerURL := rts.URL + "/datasets/bank/violations"
	twinURL := turl + "/datasets/bank/violations"

	wire, _ := bankDeltaBatches(t)
	var hits, fills int64
	for round, batch := range [][]deltaWire{nil, wire[0]} {
		if batch != nil {
			postDeltas(t, rc, rts.URL+"/datasets/bank/deltas", batch, http.StatusOK)
			postDeltas(t, tc, turl+"/datasets/bank/deltas", batch, http.StatusOK)
		}
		rawStream(t, rc, routerURL, stream.NDJSON)
		for _, enc := range streamEncodings {
			label := fmt.Sprintf("round %d %s", round, enc)
			want, err := stream.DecodeAll(bytes.NewReader(rawStream(t, tc, twinURL, enc)), enc)
			if err != nil {
				t.Fatal(err)
			}
			fill := rawStream(t, rc, routerURL, enc)
			fills++
			h, f, nm := routerMemo(t, rt, shards)
			if h != hits || f != fills {
				t.Fatalf("%s fill: router hits %d fills %d, want %d and %d", label, h, f, hits, fills)
			}
			code, hdr, hit := condRead(t, rc, routerURL, enc, "")
			hits++
			h, f, nm2 := routerMemo(t, rt, shards)
			if code != http.StatusOK || h != hits || f != fills || nm2 != nm+int64(len(shards)) {
				t.Fatalf("%s hit: %d, router hits %d fills %d, shard 304s +%d; want 200, %d, %d, +%d",
					label, code, h, f, nm2-nm, hits, fills, len(shards))
			}
			if !bytes.Equal(hit, fill) {
				t.Fatalf("%s: hit body differs from its fill", label)
			}
			got, err := stream.DecodeAll(bytes.NewReader(hit), enc)
			if err != nil {
				t.Fatalf("%s: decode hit: %v", label, err)
			}
			assertSameOrder(t, label, got, want)
			if enc == stream.NDJSON {
				if twin := rawStream(t, tc, twinURL, enc); !bytes.Equal(hit, twin) {
					t.Fatalf("%s: hit bytes differ from the single node's", label)
				}
			}
			nm0 := notModifiedCount(rt)
			if code, _, body := condRead(t, rc, routerURL, enc, hdr.Get("ETag")); code != http.StatusNotModified || len(body) != 0 {
				t.Fatalf("%s: router If-None-Match answered %d with %d bytes, want an empty 304", label, code, len(body))
			}
			if notModifiedCount(rt) != nm0+1 {
				t.Fatalf("%s: router stream_not_modified did not count its 304", label)
			}
		}
	}
}

// warmRouter reads a router's stream three times in enc and checks that
// the third was served from the router's kept body.
func warmRouter(t testing.TB, rt *Server, c *http.Client, url string, enc stream.Encoding) []byte {
	t.Helper()
	rawStream(t, c, url, enc)
	rawStream(t, c, url, enc)
	h0, _ := memoCounts(rt)
	body := rawStream(t, c, url, enc)
	if h, _ := memoCounts(rt); h != h0+1 {
		t.Fatalf("warming %s: the third read was no memo hit", enc)
	}
	return body
}

// TestRouterWarmThenStaleShardFailsLoudly is TestRouterStaleShardFailsLoudly
// with the router's memo warm: the full-Σ PUT on shard 1 makes a new
// dataset there, its stream no longer carries the kept body's tag, and
// the router's stream must end in the ownership error record, not replay
// the kept body.
func TestRouterWarmThenStaleShardFailsLoudly(t *testing.T) {
	rt, rts, shards := startFleet(t, 2)
	rc := rts.Client()
	loadBankHTTP(t, rc, rts.URL, "bank")
	url := rts.URL + "/datasets/bank/violations"
	for _, enc := range []stream.Encoding{stream.NDJSON, stream.Binary} {
		warmRouter(t, rt, rc, url, enc)
	}

	sc := shards[1].Client()
	do(t, sc, http.MethodPut, shards[1].URL+"/datasets/bank/constraints", []byte(bankSpec(t)), http.StatusOK)
	for _, rel := range []string{"interest", "saving", "checking"} {
		csvBytes, err := os.ReadFile(filepath.Join(bankDir(), rel+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		do(t, sc, http.MethodPut, shards[1].URL+"/datasets/bank?relation="+rel, csvBytes, http.StatusOK)
	}
	postDeltas(t, sc, shards[1].URL+"/datasets/bank/deltas", nil, http.StatusOK)

	h0, _ := memoCounts(rt)
	for _, enc := range []stream.Encoding{stream.NDJSON, stream.Binary} {
		_, err := stream.DecodeAll(bytes.NewReader(rawStream(t, rc, url, enc)), enc)
		if err == nil || !strings.Contains(err.Error(), "does not own") {
			t.Errorf("%s: warm router stream over a stale shard ended with %v, want an ownership error record", enc, err)
		}
	}
	if h, _ := memoCounts(rt); h != h0 {
		t.Errorf("router served %d kept bodies over a stale shard", h-h0)
	}
}

// TestRouterWarmThenShardOutageFails is TestRouterShardOutageRetryConverges's
// stream half with the router's memo warm: while shard 1 drops
// connections the conditional scatter fails and the stream answers 502;
// once the shard is back the kept body is served again, equal to a single
// node's.
func TestRouterWarmThenShardOutageFails(t *testing.T) {
	_, healthy := startServer(t)
	flakySrv := New()
	flaky := &dropSwitch{h: flakySrv}
	fts := httptest.NewUnstartedServer(flaky)
	fts.Config.BaseContext = flakySrv.BaseContext
	fts.Start()
	t.Cleanup(fts.Close)
	rt, rts := startRouter(t, []string{healthy.URL, fts.URL})
	rc := rts.Client()
	loadBankHTTP(t, rc, rts.URL, "bank")
	tc, turl := startPrimedTwin(t, "bank")
	url := rts.URL + "/datasets/bank/violations"
	kept := warmRouter(t, rt, rc, url, stream.NDJSON)

	flaky.down.Store(true)
	if body := do(t, rc, http.MethodGet, url, nil, http.StatusBadGateway); !bytes.Contains(body, []byte(fts.URL)) {
		t.Errorf("502 does not name the dead shard %s: %s", fts.URL, body)
	}

	flaky.down.Store(false)
	h0, _ := memoCounts(rt)
	got := rawStream(t, rc, url, stream.NDJSON)
	if h, _ := memoCounts(rt); h != h0+1 || !bytes.Equal(got, kept) {
		t.Fatalf("after the outage: %d hits, body equal to the kept one: %v; want 1 and true", h-h0, bytes.Equal(got, kept))
	}
	if want := rawStream(t, tc, turl+"/datasets/bank/violations", stream.NDJSON); !bytes.Equal(got, want) {
		t.Fatalf("NDJSON bytes diverge from single node:\nrouter: %s\nsingle: %s", got, want)
	}
}

// ignoreConditionals fronts a shard that drops If-None-Match from every
// request: it answers 200 with the full stream however often its tag is
// named, as a server that does not implement conditional requests would.
type ignoreConditionals struct{ h http.Handler }

func (i ignoreConditionals) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Header.Del("If-None-Match")
	i.h.ServeHTTP(w, r)
}

// TestRouterShardIgnoringConditionals: with one shard that never answers
// 304, every router read gathers, and every stream stays byte-identical to
// a single node's; the router never serves a kept body.
func TestRouterShardIgnoringConditionals(t *testing.T) {
	_, plain := startServer(t)
	deafSrv := New()
	deaf := httptest.NewUnstartedServer(ignoreConditionals{deafSrv})
	deaf.Config.BaseContext = deafSrv.BaseContext
	deaf.Start()
	t.Cleanup(deaf.Close)
	rt, rts := startRouter(t, []string{plain.URL, deaf.URL})
	rc := rts.Client()
	loadBankHTTP(t, rc, rts.URL, "bank")
	tc, turl := startPrimedTwin(t, "bank")
	url := rts.URL + "/datasets/bank/violations"
	want := rawStream(t, tc, turl+"/datasets/bank/violations", stream.NDJSON)
	for i := range 5 {
		if got := rawStream(t, rc, url, stream.NDJSON); !bytes.Equal(got, want) {
			t.Fatalf("read %d: NDJSON bytes diverge from single node:\nrouter: %s\nsingle: %s", i, got, want)
		}
	}
	if h, _ := memoCounts(rt); h != 0 {
		t.Fatalf("router served %d kept bodies past a shard that ignores conditionals", h)
	}
	if n := notModifiedCount(deafSrv); n != 0 {
		t.Fatalf("the shard ignoring conditionals answered %d 304s", n)
	}
}

// TestRouterMemoHitReleasesLock: a routed memo hit holds the dataset lock
// only across its conditional scatter, so a delta batch completes while a
// memo-hit stream's client has stopped reading mid-body.
func TestRouterMemoHitReleasesLock(t *testing.T) {
	rt, rts, _ := startFleet(t, 2)
	c := rts.Client()
	loadBankHTTP(t, c, rts.URL, "bank")
	do(t, c, http.MethodPut, rts.URL+"/datasets/bank?relation=checking", denseDirtyCSV(2520, 21), http.StatusOK)
	base := rts.URL + "/datasets/bank"
	// A ~12 MB body: more than the socket buffers hold, less than the cap.
	warmRouter(t, rt, c, base+"/violations", stream.NDJSON)

	h0, _ := memoCounts(rt)
	resp, err := c.Get(base + "/violations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	if h, _ := memoCounts(rt); h != h0+1 {
		t.Fatalf("the stalled stream is not a memo hit (hits %d, want %d)", h, h0+1)
	}

	writerDone := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(deltasRequest{Deltas: []deltaWire{
			{Op: "+", Rel: "checking", Tuple: []string{"XX", "Late", "Addr", "555", "NYC"}}}})
		wresp, err := c.Post(base+"/deltas", "application/json", bytes.NewReader(body))
		if err == nil {
			wresp.Body.Close()
			if wresp.StatusCode != http.StatusOK {
				err = fmt.Errorf("deltas = %d", wresp.StatusCode)
			}
		}
		writerDone <- err
	}()
	select {
	case err := <-writerDone:
		if err != nil {
			t.Fatalf("writer failed beside the stalled memo hit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the delta writer waited on the stalled memo hit")
	}
	if n := rt.nActiveStream.Value(); n != 1 {
		t.Fatalf("active_streams = %d when the writer finished, want the stalled hit's 1", n)
	}
}
