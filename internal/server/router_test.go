package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	cind "cind"

	"cind/internal/shard"
	"cind/internal/stream"
)

// startFleet launches n in-process shard servers plus a router over them,
// all with BaseContext wired the way cindserve wires it.
func startFleet(t testing.TB, n int) (*Server, *httptest.Server, []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	shards := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		_, ts := startServer(t)
		urls[i] = ts.URL
		shards[i] = ts
	}
	rt, ts := startRouter(t, urls)
	return rt, ts, shards
}

// startRouter launches a router over the given shard URLs.
func startRouter(t testing.TB, urls []string) (*Server, *httptest.Server) {
	t.Helper()
	rt, err := NewRouter(RouterOptions{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	return rt, startHTTPServer(t, rt)
}

// startPrimedTwin launches a single-node server holding the bank dataset
// in incremental (session) mode — the reference the router must match
// byte for byte. The router primes its shards at create time, so the twin
// is primed the same way: an empty delta batch right after create.
func startPrimedTwin(t testing.TB, name string) (*http.Client, string) {
	t.Helper()
	return startPrimedTwinSpec(t, name, bankSpec(t))
}

// startPrimedTwinSpec is startPrimedTwin under another spec over the bank
// schema.
func startPrimedTwinSpec(t testing.TB, name, spec string) (*http.Client, string) {
	t.Helper()
	_, ts := startServer(t)
	c := ts.Client()
	loadBankDataHTTP(t, c, ts.URL, name, spec)
	postDeltas(t, c, ts.URL+"/datasets/"+name+"/deltas", nil, http.StatusOK)
	return c, ts.URL
}

// assertShardsOwn checks that each shard's copy of dataset name holds
// exactly the constraints the plan gives it — Plan.Owned(i), not Σ.
func assertShardsOwn(t testing.TB, shards []*httptest.Server, name, spec string) {
	t.Helper()
	set, err := cind.ParseConstraints(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := shard.NewPlan(set, len(shards))
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shards {
		var info struct {
			Constraints int `json:"constraints"`
		}
		if err := json.Unmarshal(do(t, sh.Client(), http.MethodGet, sh.URL+"/datasets/"+name, nil, 200), &info); err != nil {
			t.Fatal(err)
		}
		if want := plan.Owned(i).Len(); info.Constraints != want {
			t.Errorf("shard %d holds %d constraints, want the %d it owns", i, info.Constraints, want)
		}
	}
}

// rawStream GETs a violation stream and returns the raw response body —
// trailer and all — for byte-level comparisons.
func rawStream(t testing.TB, c *http.Client, url string, enc stream.Encoding) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", enc.ContentType())
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (body: %s)", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != enc.ContentType() {
		t.Fatalf("Content-Type = %q, want %q", ct, enc.ContentType())
	}
	return body
}

// TestRouterDifferentialBank is the tentpole's acceptance test: a router
// over 1, 2 and 4 shards must be indistinguishable from one primed single
// node — byte-identical NDJSON (order included), equal streams in every
// encoding, equal info, and per-batch delta diffs equal to the single
// node's, violation for violation.
func TestRouterDifferentialBank(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			_, rts, shards := startFleet(t, n)
			rc := rts.Client()
			loadBankHTTP(t, rc, rts.URL, "bank")
			tc, turl := startPrimedTwin(t, "bank")
			assertShardsOwn(t, shards, "bank", bankSpec(t))

			routerURL := rts.URL + "/datasets/bank/violations"
			twinURL := turl + "/datasets/bank/violations"

			// Byte identity on the default encoding, order included.
			got := rawStream(t, rc, routerURL, stream.NDJSON)
			want := rawStream(t, tc, twinURL, stream.NDJSON)
			if !bytes.Equal(got, want) {
				t.Fatalf("NDJSON bytes diverge from single node:\nrouter: %s\nsingle: %s", got, want)
			}
			if bytes.Count(got, []byte("\n")) < 2 {
				t.Fatal("bank stream carried no violations; differential is vacuous")
			}

			// Decoded equality in every negotiated encoding.
			for _, enc := range []stream.Encoding{stream.JSONArray, stream.Binary} {
				gv, err := stream.DecodeAll(bytes.NewReader(rawStream(t, rc, routerURL, enc)), enc)
				if err != nil {
					t.Fatalf("%s: decode router stream: %v", enc, err)
				}
				wv, err := stream.DecodeAll(bytes.NewReader(rawStream(t, tc, twinURL, enc)), enc)
				if err != nil {
					t.Fatalf("%s: decode single-node stream: %v", enc, err)
				}
				assertSameOrder(t, enc.String(), gv, wv)
			}

			// limit is applied post-merge: same prefix, same trailer.
			gl := rawStream(t, rc, routerURL+"?limit=3", stream.NDJSON)
			wl := rawStream(t, tc, twinURL+"?limit=3", stream.NDJSON)
			if !bytes.Equal(gl, wl) {
				t.Fatalf("limit=3 bytes diverge:\nrouter: %s\nsingle: %s", gl, wl)
			}

			// Info: global tuple counts from the router's order tracker, and
			// the full Σ, though no shard past shard 0 holds all of it.
			var gi, wi struct {
				Dataset     string         `json:"dataset"`
				Constraints int            `json:"constraints"`
				Relations   map[string]int `json:"relations"`
				Incremental bool           `json:"incremental"`
			}
			if err := json.Unmarshal(do(t, rc, http.MethodGet, rts.URL+"/datasets/bank", nil, 200), &gi); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(do(t, tc, http.MethodGet, turl+"/datasets/bank", nil, 200), &wi); err != nil {
				t.Fatal(err)
			}
			if !gi.Incremental {
				t.Error("router info.incremental = false, want true")
			}
			gi.Incremental = wi.Incremental
			if fmt.Sprint(gi) != fmt.Sprint(wi) {
				t.Fatalf("info diverges:\nrouter: %+v\nsingle: %+v", gi, wi)
			}

			// Every recorded delta batch: identical diff, then identical
			// stream again at the end.
			batches, _ := bankDeltaBatches(t)
			for i, batch := range batches {
				gd := postDeltas(t, rc, rts.URL+"/datasets/bank/deltas", batch, http.StatusOK)
				wd := postDeltas(t, tc, turl+"/datasets/bank/deltas", batch, http.StatusOK)
				assertSameDiff(t, fmt.Sprintf("batch %d", i), gd, wd)
			}
			got = rawStream(t, rc, routerURL, stream.NDJSON)
			want = rawStream(t, tc, twinURL, stream.NDJSON)
			if !bytes.Equal(got, want) {
				t.Fatalf("post-delta NDJSON bytes diverge:\nrouter: %s\nsingle: %s", got, want)
			}
		})
	}
}

// TestRouterConcurrentDeltas streams from the router while delta batches
// land: every stream must decode cleanly (terminal trailer, exact count),
// per-batch diffs must equal the single node's, and after the churn the
// final streams must be byte-identical.
func TestRouterConcurrentDeltas(t *testing.T) {
	_, rts, _ := startFleet(t, 2)
	rc := rts.Client()
	loadBankHTTP(t, rc, rts.URL, "bank")
	tc, turl := startPrimedTwin(t, "bank")

	batches, _ := bankDeltaBatches(t)
	var pairMu sync.Mutex // keeps router and twin commit orders identical
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			body := rawStream(t, rc, rts.URL+"/datasets/bank/violations", stream.NDJSON)
			if _, err := stream.DecodeAll(bytes.NewReader(body), stream.NDJSON); err != nil {
				t.Errorf("mid-churn stream not cleanly terminated: %v", err)
				return
			}
		}
	}()

	workers := 2
	var writers sync.WaitGroup
	writers.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer writers.Done()
			for i := w; i < len(batches); i += workers {
				pairMu.Lock()
				gd := postDeltas(t, rc, rts.URL+"/datasets/bank/deltas", batches[i], http.StatusOK)
				wd := postDeltas(t, tc, turl+"/datasets/bank/deltas", batches[i], http.StatusOK)
				pairMu.Unlock()
				assertSameDiff(t, fmt.Sprintf("concurrent batch %d", i), gd, wd)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	got := rawStream(t, rc, rts.URL+"/datasets/bank/violations", stream.NDJSON)
	want := rawStream(t, tc, turl+"/datasets/bank/violations", stream.NDJSON)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-churn NDJSON bytes diverge:\nrouter: %s\nsingle: %s", got, want)
	}
}

// TestRouterHealthDegraded kills one shard and expects /healthz to degrade
// to 503 naming exactly the dead shard.
func TestRouterHealthDegraded(t *testing.T) {
	_, rts, shards := startFleet(t, 2)
	rc := rts.Client()

	body := do(t, rc, http.MethodGet, rts.URL+"/healthz", nil, http.StatusOK)
	var ok struct {
		Status string `json:"status"`
		Shards int    `json:"shards"`
	}
	if err := json.Unmarshal(body, &ok); err != nil {
		t.Fatal(err)
	}
	if ok.Status != "ok" || ok.Shards != 2 {
		t.Fatalf("healthy fleet reported %+v", ok)
	}

	deadURL := shards[1].URL
	shards[1].Close()

	body = do(t, rc, http.MethodGet, rts.URL+"/healthz", nil, http.StatusServiceUnavailable)
	var deg struct {
		Status string   `json:"status"`
		Dead   []string `json:"dead"`
	}
	if err := json.Unmarshal(body, &deg); err != nil {
		t.Fatal(err)
	}
	if deg.Status != "degraded" {
		t.Fatalf("status = %q, want degraded", deg.Status)
	}
	if len(deg.Dead) != 1 || deg.Dead[0] != deadURL {
		t.Fatalf("dead = %v, want [%s]", deg.Dead, deadURL)
	}
}

// TestRouterMetricsRollup checks the /metrics shape: router-level counters,
// per-shard raw blobs, and numeric sums across shards.
func TestRouterMetricsRollup(t *testing.T) {
	_, rts, shards := startFleet(t, 2)
	rc := rts.Client()
	loadBankHTTP(t, rc, rts.URL, "bank")
	_ = rawStream(t, rc, rts.URL+"/datasets/bank/violations", stream.NDJSON)

	body := do(t, rc, http.MethodGet, rts.URL+"/metrics", nil, http.StatusOK)
	var m struct {
		Router map[string]json.RawMessage `json:"router"`
		Shards map[string]json.RawMessage `json:"shards"`
		Rollup map[string]float64         `json:"rollup"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if len(m.Shards) != 2 {
		t.Fatalf("shards section has %d entries, want 2", len(m.Shards))
	}
	for _, sh := range shards {
		if _, found := m.Shards[sh.URL]; !found {
			t.Errorf("shard %s missing from metrics", sh.URL)
		}
	}
	var streamed float64
	if raw, found := m.Router["violations_streamed"]; !found {
		t.Error("router.violations_streamed missing")
	} else if json.Unmarshal(raw, &streamed) != nil || streamed <= 0 {
		t.Errorf("router.violations_streamed = %s, want > 0", raw)
	}
	// The roll-up is what a single node would show: no shard streams a
	// violation another shard also streams.
	if got := m.Rollup["violations_streamed"]; got != streamed {
		t.Errorf("rollup.violations_streamed = %v, want router.violations_streamed = %v", got, streamed)
	}
	var lat map[string]json.RawMessage
	if err := json.Unmarshal(m.Router["latency_us"], &lat); err != nil || lat["violations"] == nil {
		t.Errorf("router.latency_us = %s, want a violations histogram", m.Router["latency_us"])
	}
	if m.Rollup["datasets"] != 2 {
		t.Errorf("rollup.datasets = %v, want 2 (bank on both shards)", m.Rollup["datasets"])
	}

	// A warm third read is served from the router's kept body once both
	// shards answer 304: across it no shard streams a violation, and the
	// router streams the whole report.
	_ = rawStream(t, rc, rts.URL+"/datasets/bank/violations", stream.NDJSON)
	router0, rollup0 := fleetMetrics(t, rc, rts.URL)
	third := rawStream(t, rc, rts.URL+"/datasets/bank/violations", stream.NDJSON)
	router1, rollup1 := fleetMetrics(t, rc, rts.URL)
	report, err := stream.DecodeAll(bytes.NewReader(third), stream.NDJSON)
	if err != nil {
		t.Fatal(err)
	}
	if rollup1["violations_streamed"] != rollup0["violations_streamed"] {
		t.Errorf("rollup.violations_streamed moved across a warm read: %v -> %v", rollup0["violations_streamed"], rollup1["violations_streamed"])
	}
	if got := router1["violations_streamed"] - router0["violations_streamed"]; got != float64(len(report)) {
		t.Errorf("router.violations_streamed grew by %v across a warm read, want the report's %d", got, len(report))
	}
	if got := rollup1["stream_not_modified"] - rollup0["stream_not_modified"]; got != float64(len(shards)) {
		t.Errorf("rollup.stream_not_modified grew by %v across a warm read, want one per shard (%d)", got, len(shards))
	}
}

// fleetMetrics reads a router's /metrics: the numeric counters of its own
// section, and the shards' roll-up.
func fleetMetrics(t testing.TB, c *http.Client, base string) (router, rollup map[string]float64) {
	t.Helper()
	var m struct {
		Router map[string]any     `json:"router"`
		Rollup map[string]float64 `json:"rollup"`
	}
	if err := json.Unmarshal(do(t, c, http.MethodGet, base+"/metrics", nil, http.StatusOK), &m); err != nil {
		t.Fatal(err)
	}
	router = make(map[string]float64)
	for k, v := range m.Router {
		if n, ok := v.(float64); ok {
			router[k] = n
		}
	}
	return router, m.Rollup
}

// replicatedBankSpec is the bank Σ with every constraint driven by a
// replicated relation: the account CINDs dropped, and a CFD on saving and
// one on checking whose X sets are disjoint from phi1's and phi2's, which
// forces both relations to replication. Shard 0 owns all of it; every
// other shard owns nothing.
func replicatedBankSpec(t testing.TB) string {
	t.Helper()
	full, err := cind.ParseConstraints(bankSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	var keep []cind.Constraint
	for _, c := range full.Constraints() {
		if ci, ok := c.(*cind.CIND); ok && strings.HasPrefix(ci.LHSRel, "account_") {
			continue
		}
		keep = append(keep, c)
	}
	set, err := cind.NewConstraintSet(full.Schema(), keep...)
	if err != nil {
		t.Fatal(err)
	}
	return cind.MarshalConstraints(set) + `
cfd phi4: saving(cn -> cp) {
  (_ || _)
}

cfd phi5: checking(cn -> cp) {
  (_ || _)
}
`
}

// TestRouterReplicatedSigma: when no shard but shard 0 owns a constraint,
// the other shards still load and scan — to an empty stream — and the
// router's report and diffs stay byte-identical to a single node's.
func TestRouterReplicatedSigma(t *testing.T) {
	_, rts, shards := startFleet(t, 2)
	rc := rts.Client()
	spec := replicatedBankSpec(t)
	loadBankDataHTTP(t, rc, rts.URL, "bank", spec)
	tc, turl := startPrimedTwinSpec(t, "bank", spec)
	assertShardsOwn(t, shards, "bank", spec)

	var info struct {
		Relations map[string]int `json:"relations"`
	}
	if err := json.Unmarshal(do(t, shards[1].Client(), http.MethodGet, shards[1].URL+"/datasets/bank", nil, 200), &info); err != nil {
		t.Fatal(err)
	}
	if info.Relations["checking"] == 0 {
		t.Errorf("shard 1 holds no checking tuples: %v", info.Relations)
	}
	if vs, err := stream.DecodeAll(bytes.NewReader(rawStream(t, shards[1].Client(), shards[1].URL+"/datasets/bank/violations", stream.NDJSON)), stream.NDJSON); err != nil || len(vs) != 0 {
		t.Fatalf("shard 1 streamed %d violations (err %v), want a clean empty stream", len(vs), err)
	}

	routerURL := rts.URL + "/datasets/bank/violations"
	twinURL := turl + "/datasets/bank/violations"
	got := rawStream(t, rc, routerURL, stream.NDJSON)
	want := rawStream(t, tc, twinURL, stream.NDJSON)
	if !bytes.Equal(got, want) {
		t.Fatalf("NDJSON bytes diverge from single node:\nrouter: %s\nsingle: %s", got, want)
	}
	if bytes.Count(got, []byte("\n")) < 2 {
		t.Fatal("stream carried no violations; differential is vacuous")
	}
	batches, _ := bankDeltaBatches(t)
	for i, batch := range batches {
		gd := postDeltas(t, rc, rts.URL+"/datasets/bank/deltas", batch, http.StatusOK)
		wd := postDeltas(t, tc, turl+"/datasets/bank/deltas", batch, http.StatusOK)
		assertSameDiff(t, fmt.Sprintf("batch %d", i), gd, wd)
	}
	if got, want := rawStream(t, rc, routerURL, stream.NDJSON), rawStream(t, tc, twinURL, stream.NDJSON); !bytes.Equal(got, want) {
		t.Fatalf("post-delta NDJSON bytes diverge:\nrouter: %s\nsingle: %s", got, want)
	}
}

// TestRouterStaleShardFailsLoudly: a shard holding the full Σ instead of
// the constraints it owns streams violations of constraints shard 0 owns.
// The router must fail the stream with an error record and the delta with
// a 502, not silently drop the duplicates.
func TestRouterStaleShardFailsLoudly(t *testing.T) {
	_, rts, shards := startFleet(t, 2)
	rc := rts.Client()
	loadBankHTTP(t, rc, rts.URL, "bank")
	// Replace shard 1's dataset with a full-Σ copy holding the replicated
	// relations the router placed there.
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

	for _, enc := range []stream.Encoding{stream.NDJSON, stream.Binary} {
		_, err := stream.DecodeAll(bytes.NewReader(rawStream(t, rc, rts.URL+"/datasets/bank/violations", enc)), enc)
		if err == nil || !strings.Contains(err.Error(), "does not own") {
			t.Errorf("%s: router stream over a stale shard ended with %v, want an ownership error record", enc, err)
		}
	}
	batches, _ := bankDeltaBatches(t)
	body, err := json.Marshal(deltasRequest{Deltas: batches[0]})
	if err != nil {
		t.Fatal(err)
	}
	if failed := do(t, rc, http.MethodPost, rts.URL+"/datasets/bank/deltas", body, http.StatusBadGateway); !bytes.Contains(failed, []byte("does not own")) {
		t.Errorf("502 does not explain the ownership failure: %s", failed)
	}
}

// TestRouterReasoningParity: the router answers implication, consistency
// and minimize from the full constraint set it holds, through the same
// handlers a single node runs, so the answers must equal a single node's
// byte for byte.
func TestRouterReasoningParity(t *testing.T) {
	_, rts, _ := startFleet(t, 2)
	rc := rts.Client()
	loadBankHTTP(t, rc, rts.URL, "bank")
	tc, turl := startPrimedTwin(t, "bank")

	calls := []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/datasets/bank/implication", []byte(bankGoals)},
		{http.MethodGet, "/datasets/bank/consistency?k=40&seed=5", nil},
		{http.MethodPost, "/datasets/bank/minimize", nil},
	}
	for _, call := range calls {
		got := do(t, rc, call.method, rts.URL+call.path, call.body, http.StatusOK)
		want := do(t, tc, call.method, turl+call.path, call.body, http.StatusOK)
		if !bytes.Equal(got, want) {
			t.Errorf("%s %s diverges:\nrouter: %s\nsingle: %s", call.method, call.path, got, want)
		}
	}
}

// TestRouterRepairUnavailable: repair needs the whole instance on one node
// and is refused in router mode.
func TestRouterRepairUnavailable(t *testing.T) {
	_, rts, _ := startFleet(t, 2)
	rc := rts.Client()
	loadBankHTTP(t, rc, rts.URL, "bank")
	body := do(t, rc, http.MethodPost, rts.URL+"/datasets/bank/repair", nil, http.StatusNotImplemented)
	if !bytes.Contains(body, []byte("router mode")) {
		t.Fatalf("repair refusal did not explain itself: %s", body)
	}
}

// dropSwitch fronts a shard's handler: while down is set it drops every
// connection without answering — to the router, a shard gone from the
// network.
type dropSwitch struct {
	h    http.Handler
	down atomic.Bool
}

func (d *dropSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !d.down.Load() {
		d.h.ServeHTTP(w, r)
		return
	}
	if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
		conn.Close()
	}
}

// TestRouterShardOutageRetryConverges injects a shard outage into the
// router's fan-out. A delta batch sent while shard 1 drops connections
// answers 502 (shard 0 may already have applied its part); so does a
// stream. Once the shard is back, retrying the same batch answers 200 —
// shards that already hold it no-op, set semantics — and the router's
// NDJSON stream is byte-identical to a single node fed the batch once.
func TestRouterShardOutageRetryConverges(t *testing.T) {
	_, healthy := startServer(t)
	flakySrv := New()
	flaky := &dropSwitch{h: flakySrv}
	fts := httptest.NewUnstartedServer(flaky)
	fts.Config.BaseContext = flakySrv.BaseContext
	fts.Start()
	t.Cleanup(fts.Close)
	_, rts := startRouter(t, []string{healthy.URL, fts.URL})
	rc := rts.Client()
	loadBankHTTP(t, rc, rts.URL, "bank")
	tc, turl := startPrimedTwin(t, "bank")

	// Three deltas on replicated relations, so both shards take part: the
	// repair of the 10.5% EDI rate and a new account in a branch with no
	// interest rows.
	wire, _ := bankDeltaBatches(t)
	var batch []deltaWire
	for _, b := range wire[:3] {
		batch = append(batch, b...)
	}
	routerURL := rts.URL + "/datasets/bank/violations"
	twinURL := turl + "/datasets/bank/violations"

	flaky.down.Store(true)
	body, err := json.Marshal(deltasRequest{Deltas: batch})
	if err != nil {
		t.Fatal(err)
	}
	failed := do(t, rc, http.MethodPost, rts.URL+"/datasets/bank/deltas", body, http.StatusBadGateway)
	if !bytes.Contains(failed, []byte(fts.URL)) {
		t.Errorf("502 does not name the dead shard %s: %s", fts.URL, failed)
	}
	do(t, rc, http.MethodGet, routerURL, nil, http.StatusBadGateway)

	flaky.down.Store(false)
	postDeltas(t, rc, rts.URL+"/datasets/bank/deltas", batch, http.StatusOK)
	postDeltas(t, tc, turl+"/datasets/bank/deltas", batch, http.StatusOK)
	got := rawStream(t, rc, routerURL, stream.NDJSON)
	want := rawStream(t, tc, twinURL, stream.NDJSON)
	if !bytes.Equal(got, want) {
		t.Fatalf("retried batch: NDJSON bytes diverge from single node:\nrouter: %s\nsingle: %s", got, want)
	}

	// The fleet keeps converging: the next batch's diff and stream match.
	gd := postDeltas(t, rc, rts.URL+"/datasets/bank/deltas", wire[3], http.StatusOK)
	wd := postDeltas(t, tc, turl+"/datasets/bank/deltas", wire[3], http.StatusOK)
	assertSameDiff(t, "post-outage batch", gd, wd)
	if got, want := rawStream(t, rc, routerURL, stream.NDJSON), rawStream(t, tc, twinURL, stream.NDJSON); !bytes.Equal(got, want) {
		t.Fatalf("post-outage NDJSON bytes diverge:\nrouter: %s\nsingle: %s", got, want)
	}
}

// TestRouterDeleteRemovesEverywhere: after a router delete the dataset is
// gone from the router and from every shard.
func TestRouterDeleteRemovesEverywhere(t *testing.T) {
	_, rts, shards := startFleet(t, 2)
	rc := rts.Client()
	loadBankHTTP(t, rc, rts.URL, "bank")
	do(t, rc, http.MethodDelete, rts.URL+"/datasets/bank", nil, http.StatusNoContent)
	for i, sh := range shards {
		resp, err := sh.Client().Get(sh.URL + "/datasets/bank")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("shard %d still has dataset after router delete: %d", i, resp.StatusCode)
		}
	}
}

// TestShardDataDirNoCollision is the per-shard WAL regression test: two
// shard servers pointed at the same -data root with distinct shard indices
// must persist and recover independently — a shared directory would mix
// their WALs and corrupt recovery.
func TestShardDataDirNoCollision(t *testing.T) {
	root := t.TempDir()
	dirs := []string{shard.DataDir(root, 0), shard.DataDir(root, 1)}
	if dirs[0] == dirs[1] {
		t.Fatalf("DataDir collides: %s", dirs[0])
	}

	spec, err := os.ReadFile(filepath.Join("..", "..", "testdata", "bank", "bank.cind"))
	if err != nil {
		t.Fatal(err)
	}

	// Same dataset name on both "shards", different row counts so mixed-up
	// recovery is detectable.
	for i, dir := range dirs {
		srv, err := NewWithOptions(Options{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		c, base := startHTTP(t, srv)
		do(t, c, http.MethodPut, base+"/datasets/bank/constraints", spec, http.StatusOK)
		var rows strings.Builder
		rows.WriteString("an,cn,ca,cp,ab\n")
		for r := 0; r <= i; r++ {
			fmt.Fprintf(&rows, "%d%d,Cust,Addr,555,NYC\n", i, r)
		}
		do(t, c, http.MethodPut, base+"/datasets/bank?relation=checking", []byte(rows.String()), http.StatusOK)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen both and check each recovered exactly its own rows.
	for i, dir := range dirs {
		srv, err := NewWithOptions(Options{DataDir: dir})
		if err != nil {
			t.Fatalf("shard %d recovery: %v", i, err)
		}
		c, base := startHTTP(t, srv)
		var info struct {
			Relations map[string]int `json:"relations"`
		}
		if err := json.Unmarshal(do(t, c, http.MethodGet, base+"/datasets/bank", nil, 200), &info); err != nil {
			t.Fatal(err)
		}
		if got := info.Relations["checking"]; got != i+1 {
			t.Errorf("shard %d recovered %d checking rows, want %d", i, got, i+1)
		}
		srv.Close()
	}
}

// startHTTP wraps an existing *Server in an httptest server.
func startHTTP(t testing.TB, srv *Server) (*http.Client, string) {
	t.Helper()
	ts := startHTTPServer(t, srv)
	return ts.Client(), ts.URL
}

// startHTTPServer serves srv behind httptest with its BaseContext wired.
func startHTTPServer(t testing.TB, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.BaseContext = srv.BaseContext
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}
