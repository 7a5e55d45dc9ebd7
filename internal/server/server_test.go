package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	cind "cind"

	"cind/internal/stream"
)

var bankRelations = []string{"account_NYC", "account_EDI", "saving", "checking", "interest"}

func bankDir() string { return filepath.Join("..", "..", "testdata", "bank") }

func bankSpecBytes() ([]byte, error) {
	return os.ReadFile(filepath.Join(bankDir(), "bank.cind"))
}

func bankSpec(t testing.TB) string {
	t.Helper()
	src, err := bankSpecBytes()
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// startServer launches a Server behind httptest with BaseContext wired the
// way cindserve wires it, so request contexts derive from the drainable
// base context.
func startServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	s := New()
	return s, startHTTPServer(t, s)
}

// serveModes are the two ways a Server serves datasets — local, and
// routed over a 2-shard fleet — for the suites that pin the shared
// handlers in both.
var serveModes = []struct {
	name  string
	start func(testing.TB) (*Server, *httptest.Server)
}{
	{"single", startServer},
	{"router", func(t testing.TB) (*Server, *httptest.Server) {
		rt, ts, _ := startFleet(t, 2)
		return rt, ts
	}},
}

// do issues one request and checks the status code, returning the body.
func do(t testing.TB, c *http.Client, method, url string, body []byte, wantCode int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d (body: %s)", method, url, resp.StatusCode, wantCode, out)
	}
	return out
}

// streamViolations GETs the violations endpoint (default NDJSON encoding)
// and decodes the stream; a terminal error line or a stream without its
// trailer fails the test.
func streamViolations(t testing.TB, c *http.Client, url string) []violationWire {
	return streamViolationsEnc(t, c, url, stream.NDJSON)
}

// streamViolationsEnc is streamViolations with an explicit negotiated
// encoding: the request carries the encoding's content type in Accept, the
// response must answer with it, and the stream must end cleanly (trailer
// present, count matching).
func streamViolationsEnc(t testing.TB, c *http.Client, url string, enc stream.Encoding) []violationWire {
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
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d (body: %s)", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != enc.ContentType() {
		t.Fatalf("violations Content-Type = %q, want %q", ct, enc.ContentType())
	}
	out, err := stream.DecodeAll(resp.Body, enc)
	if err != nil {
		t.Fatalf("decode %s stream: %v", enc, err)
	}
	return out
}

// collectDirect drains chk.Violations into wire form — the direct-call side
// of every differential comparison.
func collectDirect(t testing.TB, chk *cind.Checker) []violationWire {
	t.Helper()
	var out []violationWire
	for v, err := range chk.Violations(context.Background()) {
		if err != nil {
			t.Fatalf("direct Violations: %v", err)
		}
		out = append(out, stream.Convert(v))
	}
	return out
}

func wireStrings(t testing.TB, ws []violationWire) []string {
	t.Helper()
	out := make([]string, len(ws))
	for i, w := range ws {
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

func assertSameOrder(t testing.TB, label string, got, want []violationWire) {
	t.Helper()
	g, w := wireStrings(t, got), wireStrings(t, want)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: HTTP stream diverges from direct call\nhttp  (%d): %v\ndirect (%d): %v",
			label, len(g), g, len(w), w)
	}
}

func assertSameMultiset(t testing.TB, label string, got, want []violationWire) {
	t.Helper()
	g, w := wireStrings(t, got), wireStrings(t, want)
	sort.Strings(g)
	sort.Strings(w)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: HTTP stream content diverges from direct call\nhttp  (%d): %v\ndirect (%d): %v",
			label, len(g), g, len(w), w)
	}
}

// loadBankHTTP uploads the bank fixtures into dataset name over the wire.
func loadBankHTTP(t testing.TB, c *http.Client, base, name string) {
	t.Helper()
	loadBankDataHTTP(t, c, base, name, bankSpec(t))
}

// loadBankDataHTTP is loadBankHTTP under another constraint spec over the
// bank schema.
func loadBankDataHTTP(t testing.TB, c *http.Client, base, name, spec string) {
	t.Helper()
	do(t, c, http.MethodPut, base+"/datasets/"+name+"/constraints", []byte(spec), http.StatusOK)
	for _, rel := range bankRelations {
		csvBytes, err := os.ReadFile(filepath.Join(bankDir(), rel+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		do(t, c, http.MethodPut, base+"/datasets/"+name+"?relation="+rel, csvBytes, http.StatusOK)
	}
}

// bankChecker builds the direct-call twin: same spec text, same CSV bytes.
func bankChecker(t testing.TB, opts ...cind.CheckerOption) (*cind.Checker, *cind.ConstraintSet) {
	t.Helper()
	set, err := cind.ParseConstraints(bankSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	db := cind.NewDatabase(set.Schema())
	for _, rel := range bankRelations {
		fh, err := os.Open(filepath.Join(bankDir(), rel+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		err = cind.LoadCSV(db, rel, fh, true)
		fh.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	chk, err := cind.NewChecker(db, set, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return chk, set
}

// bankDeltaBatches parses testdata/bank/deltas.log into one wire batch and
// one direct batch per line.
func bankDeltaBatches(t testing.TB) (wire [][]deltaWire, direct [][]cind.Delta) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(bankDir(), "deltas.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := csv.NewReader(strings.NewReader(line)).Read()
		if err != nil {
			t.Fatal(err)
		}
		dw := deltaWire{Op: rec[0], Rel: rec[1], Tuple: rec[2:]}
		wire = append(wire, []deltaWire{dw})
		tup := cind.Consts(rec[2:]...)
		if rec[0] == "+" {
			direct = append(direct, []cind.Delta{cind.InsertDelta(rec[1], tup)})
		} else {
			direct = append(direct, []cind.Delta{cind.DeleteDelta(rec[1], tup)})
		}
	}
	return wire, direct
}

func postDeltas(t testing.TB, c *http.Client, url string, batch []deltaWire, wantCode int) diffWire {
	t.Helper()
	body, err := json.Marshal(deltasRequest{Deltas: batch})
	if err != nil {
		t.Fatal(err)
	}
	out := do(t, c, http.MethodPost, url, body, wantCode)
	var diff diffWire
	if wantCode == http.StatusOK {
		if err := json.Unmarshal(out, &diff); err != nil {
			t.Fatalf("decode diff %s: %v", out, err)
		}
	}
	return diff
}

func encodeDiff(d *cind.ReportDiff, applied int) diffWire {
	return diffWire{Applied: applied, Added: encodeReport(&d.Added), Removed: encodeReport(&d.Removed)}
}

func assertSameDiff(t testing.TB, label string, got diffWire, want diffWire) {
	t.Helper()
	// Durability is a property of the server's storage with no direct-call
	// twin; the durability tests assert it explicitly.
	got.Durable, got.StorageError = nil, ""
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: HTTP diff diverges from direct Apply\nhttp:   %s\ndirect: %s", label, gb, wb)
	}
}

// TestHTTPDifferentialBank is the end-to-end differential suite on the
// paper's bank fixtures: every HTTP response — including the NDJSON stream
// content and order — must equal calling the same Checker methods directly,
// and delta batches over HTTP must produce the same Diff as Apply. The
// pre-Apply stream is the report at any worker count, so order is compared
// exactly, not as a multiset.
func TestHTTPDifferentialBank(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	ctx := context.Background()

	chk, _ := bankChecker(t)
	base := ts.URL + "/datasets/bank"

	// Batch streaming parity (pre-Apply, engine path), full and limited.
	direct := collectDirect(t, chk)
	if len(direct) != 2 {
		t.Fatalf("bank fixtures yield %d violations, want the paper's 2", len(direct))
	}
	assertSameOrder(t, "pre-apply stream", streamViolations(t, c, base+"/violations"), direct)
	for _, limit := range []int{1, 2, 5} {
		lchk, _ := bankChecker(t, cind.WithLimit(limit))
		assertSameOrder(t, fmt.Sprintf("limit=%d", limit),
			streamViolations(t, c, fmt.Sprintf("%s/violations?limit=%d", base, limit)),
			collectDirect(t, lchk))
	}

	// Repair parity on the dirty state.
	directRepair, err := chk.Repair(ctx, cind.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var gotRepair repairWire
	if err := json.Unmarshal(do(t, c, http.MethodPost, base+"/repair", nil, http.StatusOK), &gotRepair); err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(gotRepair)
	wb, _ := json.Marshal(encodeRepair(directRepair))
	if !bytes.Equal(gb, wb) {
		t.Fatalf("repair diverges\nhttp:   %s\ndirect: %s", gb, wb)
	}

	// Delta batches: the fixture delta log, one batch per line, must
	// produce the same Diff over HTTP as through Apply.
	wireBatches, directBatches := bankDeltaBatches(t)
	if len(wireBatches) == 0 {
		t.Fatal("deltas.log yielded no batches")
	}
	for i := range wireBatches {
		got := postDeltas(t, c, base+"/deltas", wireBatches[i], http.StatusOK)
		want, err := chk.Apply(ctx, directBatches[i]...)
		if err != nil {
			t.Fatal(err)
		}
		assertSameDiff(t, fmt.Sprintf("batch %d", i), got, encodeDiff(want, len(directBatches[i])))
	}

	// Post-Apply (session) streaming parity: the maintained report is
	// deterministic, so order must match exactly.
	assertSameOrder(t, "post-apply stream", streamViolations(t, c, base+"/violations"), collectDirect(t, chk))

	// The delta log cures the paper's two errors: both sides end clean.
	rep, err := chk.Detect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("direct checker not clean after delta log:\n%s", rep)
	}
	if got := streamViolations(t, c, base+"/violations"); len(got) != 0 {
		t.Fatalf("HTTP stream not clean after delta log: %d violations", len(got))
	}

	// Dataset info reflects the incremental mode switch.
	var info struct {
		Incremental bool           `json:"incremental"`
		Relations   map[string]int `json:"relations"`
	}
	if err := json.Unmarshal(do(t, c, http.MethodGet, base, nil, http.StatusOK), &info); err != nil {
		t.Fatal(err)
	}
	if !info.Incremental {
		t.Fatal("dataset must be incremental after delta batches")
	}
	if want := chk.Database().Instance("checking").Len(); info.Relations["checking"] != want {
		t.Fatalf("info reports %d checking tuples, direct db has %d", info.Relations["checking"], want)
	}
}

// generatedFixture renders a dirtied generated workload as the spec text
// and per-relation CSV bytes both sides load, so the HTTP dataset and the
// direct checker see byte-identical input.
func generatedFixture(t testing.TB, seed int64) (spec string, csvs map[string][]byte) {
	t.Helper()
	w := cind.GenerateWorkload(cind.WorkloadConfig{Relations: 8, Card: 120, Consistent: true, Seed: seed})
	if w.Witness == nil {
		t.Fatalf("seed %d: consistent workload carries no witness", seed)
	}
	// Generated witnesses are minimal (one tuple per relation), so expand
	// each relation with in-domain variants of its witness tuple: varying
	// one infinite-domain attribute in a small cycle creates CFD pair
	// conflicts within a projection group, and the LHS variants lack RHS
	// partners, so CINDs violate too.
	db := w.Witness.Clone()
	for _, rel := range w.Schema.Relations() {
		in := db.Instance(rel.Name())
		if in.Len() == 0 {
			continue
		}
		base := in.Tuples()[0].Clone()
		attrs := rel.Attrs()
		vary := -1
		for j := len(attrs) - 1; j >= 0; j-- {
			if !attrs[j].Dom.IsFinite() {
				vary = j
				break
			}
		}
		for i := 0; i < 20; i++ {
			mut := base.Clone()
			if vary >= 0 {
				mut[vary] = cind.Const(fmt.Sprintf("%s#%d", base[vary].String(), i%7))
			} else {
				vals := attrs[len(attrs)-1].Dom.Values()
				mut[len(attrs)-1] = cind.Const(vals[i%len(vals)])
			}
			in.Insert(mut)
		}
	}
	cs := make([]cind.Constraint, 0, len(w.CFDs)+len(w.CINDs))
	for _, c := range w.CFDs {
		cs = append(cs, c)
	}
	for _, c := range w.CINDs {
		cs = append(cs, c)
	}
	set, err := cind.NewConstraintSet(w.Schema, cs...)
	if err != nil {
		t.Fatal(err)
	}
	csvs = make(map[string][]byte)
	for _, rel := range w.Schema.Relations() {
		in := db.Instance(rel.Name())
		if in.Len() == 0 {
			continue
		}
		var buf bytes.Buffer
		cw := csv.NewWriter(&buf)
		cw.Write(rel.AttrNames())
		for _, tup := range in.Tuples() {
			cw.Write(tupleStrings(tup))
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			t.Fatal(err)
		}
		csvs[rel.Name()] = buf.Bytes()
	}
	return cind.MarshalConstraints(set), csvs
}

// TestHTTPDifferentialGeneratedWorkloads runs the differential suite over
// Section 6 generated workloads: exact-order parity under default
// parallelism (the engine streams the report at any worker count), again
// once the session is resident, and Diff parity for a real delta batch.
func TestHTTPDifferentialGeneratedWorkloads(t *testing.T) {
	for _, seed := range []int64{1, 21} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec, csvs := generatedFixture(t, seed)
			_, ts := startServer(t)
			c := ts.Client()
			base := ts.URL + "/datasets/gen"
			do(t, c, http.MethodPut, base+"/constraints", []byte(spec), http.StatusOK)
			rels := make([]string, 0, len(csvs))
			for rel := range csvs {
				rels = append(rels, rel)
			}
			sort.Strings(rels)
			for _, rel := range rels {
				do(t, c, http.MethodPut, base+"?relation="+rel, csvs[rel], http.StatusOK)
			}

			set, err := cind.ParseConstraints(spec)
			if err != nil {
				t.Fatal(err)
			}
			db := cind.NewDatabase(set.Schema())
			for _, rel := range rels {
				if err := cind.LoadCSV(db, rel, bytes.NewReader(csvs[rel]), true); err != nil {
					t.Fatal(err)
				}
			}
			chk, err := cind.NewChecker(db, set)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()

			// Pre-Apply: engine path, default worker pool — order parity.
			direct := collectDirect(t, chk)
			if len(direct) == 0 {
				t.Fatal("dirtied workload produced no violations; test lost its point")
			}
			assertSameOrder(t, "pre-apply stream", streamViolations(t, c, base+"/violations"), direct)

			// An empty batch builds the resident session on both sides.
			emptyDiff := postDeltas(t, c, base+"/deltas", nil, http.StatusOK)
			wantEmpty, err := chk.Apply(ctx)
			if err != nil {
				t.Fatal(err)
			}
			assertSameDiff(t, "empty batch", emptyDiff, encodeDiff(wantEmpty, 0))

			// Session mode: the maintained report is deterministic — exact
			// order, and ?limit= is a true prefix of the full stream.
			full := streamViolations(t, c, base+"/violations")
			assertSameOrder(t, "session stream", full, collectDirect(t, chk))
			if len(full) > 1 {
				k := len(full) / 2
				assertSameOrder(t, "session limit", streamViolations(t, c, fmt.Sprintf("%s/violations?limit=%d", base, k)), full[:k])
			}

			// A real batch: delete one tuple, insert a mutated one.
			var rel string
			for _, r := range rels {
				if chk.Database().Instance(r).Len() >= 2 {
					rel = r
					break
				}
			}
			if rel == "" {
				t.Fatal("no relation with two tuples")
			}
			tuples := chk.Database().Instance(rel).Tuples()
			t0, t1 := tupleStrings(tuples[0]), tupleStrings(tuples[1])
			mut := append([]string(nil), t0...)
			mut[len(mut)-1] = t1[len(t1)-1]
			batch := []deltaWire{
				{Op: "-", Rel: rel, Tuple: t0},
				{Op: "+", Rel: rel, Tuple: mut},
			}
			got := postDeltas(t, c, base+"/deltas", batch, http.StatusOK)
			want, err := chk.Apply(ctx,
				cind.DeleteDelta(rel, cind.Consts(t0...)),
				cind.InsertDelta(rel, cind.Consts(mut...)))
			if err != nil {
				t.Fatal(err)
			}
			assertSameDiff(t, "mutating batch", got, encodeDiff(want, 2))

			assertSameOrder(t, "final stream", streamViolations(t, c, base+"/violations"), collectDirect(t, chk))
		})
	}
}

// TestHTTPErrors pins the failure surface, on a single node and on a
// router alike: wrong names are 404, malformed input — constraint text,
// CSV, delta batches, query parameters — is 400 with the
// domain-validation error in the body, wrong methods are 405, and nothing
// is ever a 500. A row whose router status differs by design says so.
func TestHTTPErrors(t *testing.T) {
	for _, mode := range serveModes {
		t.Run(mode.name, func(t *testing.T) {
			_, ts := mode.start(t)
			c := ts.Client()
			loadBankHTTP(t, c, ts.URL, "bank")
			testHTTPErrors(t, c, ts.URL, mode.name == "router")
		})
	}
}

func testHTTPErrors(t *testing.T, c *http.Client, root string, router bool) {
	base := root + "/datasets/bank"
	checks := []struct {
		label  string
		method string
		url    string
		body   string
		want   int
		router int // the router's status, where it differs by design
	}{
		{label: "violations of unknown dataset", method: "GET", url: root + "/datasets/nope/violations", want: 404},
		{label: "data to unknown dataset", method: "PUT", url: root + "/datasets/nope?relation=checking", body: "an,cn,ca,cp,ab\n", want: 404},
		{label: "deltas to unknown dataset", method: "POST", url: root + "/datasets/nope/deltas", body: `{"deltas":[]}`, want: 404},
		{label: "repair of unknown dataset", method: "POST", url: root + "/datasets/nope/repair", want: 404},
		{label: "info of unknown dataset", method: "GET", url: root + "/datasets/nope", want: 404},
		{label: "delete of unknown dataset", method: "DELETE", url: root + "/datasets/nope", want: 404},
		{label: "bad constraint text", method: "PUT", url: root + "/datasets/x/constraints", body: "relation r(", want: 400},
		{label: "bad parallel", method: "PUT", url: root + "/datasets/x/constraints?parallel=lots", body: bankSpec(t), want: 400},
		{label: "data without relation", method: "PUT", url: base, body: "an,cn,ca,cp,ab\n", want: 400},
		{label: "data to unknown relation", method: "PUT", url: base + "?relation=nope", body: "a,b\n", want: 400},
		{label: "unknown CSV header", method: "PUT", url: base + "?relation=checking", body: "an,cn,ca,cp,bogus\n1,2,3,4,5\n", want: 400},
		{label: "duplicate CSV header", method: "PUT", url: base + "?relation=checking", body: "an,an,ca,cp,ab\n1,2,3,4,5\n", want: 400},
		{label: "out-of-domain CSV value", method: "PUT", url: base + "?relation=account_NYC", body: "an,cn,ca,cp,at\n1,2,3,4,money-market\n", want: 400},
		{label: "bad limit", method: "GET", url: base + "/violations?limit=all", want: 400},
		{label: "negative limit", method: "GET", url: base + "/violations?limit=-1", want: 400},
		{label: "zero limit streams unlimited", method: "GET", url: base + "/violations?limit=0", want: 200},
		{label: "delta garbage", method: "POST", url: base + "/deltas", body: "{", want: 400},
		{label: "delta bad op", method: "POST", url: base + "/deltas", body: `{"deltas":[{"op":"*","rel":"checking","tuple":["1","2","3","4","5"]}]}`, want: 400},
		{label: "delta unknown relation", method: "POST", url: base + "/deltas", body: `{"deltas":[{"op":"+","rel":"nope","tuple":["1"]}]}`, want: 400},
		{label: "delta arity mismatch", method: "POST", url: base + "/deltas", body: `{"deltas":[{"op":"+","rel":"checking","tuple":["1"]}]}`, want: 400},
		{label: "delta out-of-domain value", method: "POST", url: base + "/deltas", body: `{"deltas":[{"op":"+","rel":"account_NYC","tuple":["1","2","3","4","money-market"]}]}`, want: 400},
		{label: "delta unknown field", method: "POST", url: base + "/deltas", body: `{"deltas":[{"op":"+","rel":"checking","tuple":["1","2","3","4","5"],"extra":1}]}`, want: 400},
		{label: "delta trailing data", method: "POST", url: base + "/deltas", body: `{"deltas":[]}{"deltas":[]}`, want: 400},
		{label: "repair bad body", method: "POST", url: base + "/repair", body: "nope", want: 400},
		{label: "repair negative passes", method: "POST", url: base + "/repair", body: `{"max_passes":-1}`, want: 400},
		{label: "repair unknown option", method: "POST", url: base + "/repair", body: `{"passes":3}`, want: 400},
		// Repair needs the whole instance on one node.
		{label: "repair", method: "POST", url: base + "/repair", want: 200, router: 501},
		{label: "wrong method on violations", method: "POST", url: base + "/violations", want: 405},
		{label: "wrong method on deltas", method: "GET", url: base + "/deltas", want: 405},
	}
	for _, tc := range checks {
		want := tc.want
		if router && tc.router != 0 {
			want = tc.router
		}
		body := do(t, c, tc.method, tc.url, []byte(tc.body), want)
		if want >= 400 && want != 405 {
			var e errorWire
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("%s: %d body must carry the error, got %q", tc.label, want, body)
			}
		}
	}

	// A bare-array delta body is accepted shorthand.
	do(t, c, http.MethodPost, base+"/deltas", []byte(`[]`), http.StatusOK)

	// Lifecycle: list, delete, list.
	var list struct {
		Datasets []string `json:"datasets"`
	}
	if err := json.Unmarshal(do(t, c, http.MethodGet, root+"/datasets", nil, 200), &list); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(list.Datasets, []string{"bank"}) {
		t.Fatalf("datasets = %v, want [bank]", list.Datasets)
	}
	do(t, c, http.MethodDelete, root+"/datasets/bank", nil, http.StatusNoContent)
	do(t, c, http.MethodGet, base, nil, http.StatusNotFound)
	do(t, c, http.MethodGet, base+"/violations", nil, http.StatusNotFound)
}

// TestMetricsAndHealth exercises /healthz and the per-server expvar map:
// datasets, requests, streamed-violation and active-stream gauges.
func TestMetricsAndHealth(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")

	var health struct {
		Status   string `json:"status"`
		Datasets int    `json:"datasets"`
	}
	if err := json.Unmarshal(do(t, c, http.MethodGet, ts.URL+"/healthz", nil, 200), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Datasets != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	streamed := len(streamViolations(t, c, ts.URL+"/datasets/bank/violations"))
	postDeltas(t, c, ts.URL+"/datasets/bank/deltas",
		[]deltaWire{{Op: "-", Rel: "interest", Tuple: []string{"EDI", "UK", "checking", "10.5%"}}}, http.StatusOK)

	var m struct {
		Datasets           int64 `json:"datasets"`
		Requests           int64 `json:"requests"`
		ViolationsStreamed int64 `json:"violations_streamed"`
		ActiveStreams      int64 `json:"active_streams"`
		DeltasApplied      int64 `json:"deltas_applied"`
	}
	if err := json.Unmarshal(do(t, c, http.MethodGet, ts.URL+"/metrics", nil, 200), &m); err != nil {
		t.Fatal(err)
	}
	if m.Datasets != 1 || m.Requests == 0 || m.ActiveStreams != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.ViolationsStreamed != int64(streamed) {
		t.Fatalf("violations_streamed = %d, want %d", m.ViolationsStreamed, streamed)
	}
	if m.DeltasApplied != 1 {
		t.Fatalf("deltas_applied = %d, want 1", m.DeltasApplied)
	}

	// /debug/vars is the process-wide expvar handler.
	var dv map[string]any
	if err := json.Unmarshal(do(t, c, http.MethodGet, ts.URL+"/debug/vars", nil, 200), &dv); err != nil {
		t.Fatal(err)
	}
	if _, ok := dv["memstats"]; !ok {
		t.Fatal("/debug/vars must expose the process expvar set")
	}
}

// TestProgrammaticAPIAndLateCSVLoad covers the surface cindserve's preload
// flags use (CreateDataset, LoadCSV, Vars) and the late-load path: CSV
// uploaded after the dataset's checker exists must be absorbed through
// Apply — switching the dataset to incremental mode — and end in the same
// state a direct checker reaches over the same inputs.
func TestProgrammaticAPIAndLateCSVLoad(t *testing.T) {
	s := New()
	set, err := cind.ParseConstraints(bankSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCSV("nope", "checking", strings.NewReader("an,cn,ca,cp,ab\n")); err == nil {
		t.Fatal("LoadCSV into a missing dataset must fail")
	}
	s.CreateDataset("bank", set, 0)
	for _, rel := range bankRelations {
		fh, err := os.Open(filepath.Join(bankDir(), rel+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		err = s.LoadCSV("bank", rel, fh)
		fh.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	var m struct {
		Datasets int64 `json:"datasets"`
	}
	if err := json.Unmarshal([]byte(s.Vars().String()), &m); err != nil || m.Datasets != 1 {
		t.Fatalf("Vars() = %s (err %v)", s.Vars(), err)
	}

	// Build the checker by streaming once, handler-level.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/datasets/bank/violations", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("violations = %d", rec.Code)
	}

	// A late CSV load now routes through Checker.Apply.
	extra := denseDirtyCSV(40, 4)
	if err := s.LoadCSV("bank", "checking", bytes.NewReader(extra)); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/datasets/bank", nil))
	var info struct {
		Incremental bool `json:"incremental"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if !info.Incremental {
		t.Fatal("a CSV load after the checker exists must build the session via Apply")
	}

	// Same final state as the direct twin (session mode on both sides, so
	// stream order is the deterministic report order).
	chk, _ := bankChecker(t)
	in := chk.Database().Instance("checking")
	for _, row := range parseCSVRows(t, extra) {
		in.Insert(cind.Consts(row...))
	}
	if _, err := chk.Apply(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/datasets/bank/violations", nil))
	got, err := stream.DecodeAll(rec.Body, stream.NDJSON)
	if err != nil {
		t.Fatalf("decode stream: %v", err)
	}
	assertSameOrder(t, "late-load state", got, collectDirect(t, chk))
}

// denseDirtyCSV renders a violation-heavy checking relation: rows collide
// on (an, ab) in groups with pairwise-conflicting customer names, so phi2
// yields a quadratic number of pairs per group — the workload where a
// stream meaningfully outlives its first line.
func denseDirtyCSV(n, groups int) []byte {
	var buf bytes.Buffer
	buf.WriteString("an,cn,ca,cp,ab\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "%05d,Cust-%d,Addr,555,%s\n", i%groups, i, []string{"NYC", "EDI"}[i%2])
	}
	return buf.Bytes()
}

// TestInfoStaysLiveBehindBlockedWriter pins the liveness of the dataset's
// endpoints behind a stream the client stopped reading, on a single node
// and on a router. On a single node the stalled stream holds no lock — it
// pinned its version and yields it without the checker's lock — so a delta
// writer completes meanwhile, and dataset info answers. On a router the
// stream holds the gather lock's read side, a delta writer queues behind
// it on the write side, and dataset info must still answer promptly.
func TestInfoStaysLiveBehindBlockedWriter(t *testing.T) {
	for _, mode := range serveModes {
		t.Run(mode.name, func(t *testing.T) {
			s, ts := mode.start(t)
			testInfoStaysLive(t, s, ts)
		})
	}
}

func testInfoStaysLive(t *testing.T, s *Server, ts *httptest.Server) {
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	do(t, c, http.MethodPut, ts.URL+"/datasets/bank?relation=checking",
		denseDirtyCSV(3000, 30), http.StatusOK)
	base := ts.URL + "/datasets/bank"
	d, ok := s.dataset("bank")
	if !ok {
		t.Fatal("no dataset")
	}
	rt, routed := d.(*routed)

	// A slow reader: open the stream, take one line, then stop reading so
	// the handler stays mid-stream.
	resp, err := c.Get(base + "/violations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatal(err)
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
	if routed {
		// The writer queues behind the stream on the gather lock.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if !rt.mu.TryRLock() {
				break
			}
			rt.mu.RUnlock()
			if time.Now().After(deadline) {
				t.Fatal("the delta writer never queued behind the stream")
			}
		}
	} else {
		select {
		case err := <-writerDone:
			if err != nil {
				t.Fatalf("writer failed beside the stalled stream: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("the delta writer waited on the stalled stream")
		}
	}

	// Info must answer, whether or not a writer waits.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	iresp, err := c.Do(req)
	if err != nil {
		t.Fatalf("info stalled behind the stalled stream: %v", err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusOK {
		t.Fatalf("info = %d", iresp.StatusCode)
	}
	if !routed {
		return
	}

	// Unblock: dropping the stream cancels its request context, the read
	// side is released, the writer completes.
	resp.Body.Close()
	if err := <-writerDone; err != nil {
		t.Fatalf("writer never completed: %v", err)
	}
}

// TestDrainEndsActiveStreams: Drain (the shutdown path cindserve runs
// before http.Server.Shutdown) must end an in-flight NDJSON stream with a
// final error line instead of letting it run to completion, and must fail
// new streams immediately.
func TestDrainEndsActiveStreams(t *testing.T) {
	s, ts := startServer(t)
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	do(t, c, http.MethodPut, ts.URL+"/datasets/bank?relation=checking", denseDirtyCSV(3000, 30), http.StatusOK)

	resp, err := c.Get(ts.URL + "/datasets/bank/violations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("no first violation before drain: %v", err)
	}
	s.Drain()
	sawError := false
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			break // server closed the stream
		}
		var e errorWire
		if json.Unmarshal(bytes.TrimSpace(line), &e) == nil && e.Error != "" {
			sawError = true
			break
		}
	}
	if !sawError {
		t.Fatal("drained stream must end with an error line")
	}

	// New streams on a drained server answer with an immediate error line.
	resp2, err := c.Get(ts.URL + "/datasets/bank/violations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	line, err := bufio.NewReader(resp2.Body).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var e errorWire
	if json.Unmarshal(bytes.TrimSpace(line), &e) != nil || e.Error == "" {
		t.Fatalf("post-drain stream line = %q, want an error line", line)
	}
}
