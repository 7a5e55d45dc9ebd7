package server

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	cind "cind"
)

// loadBankConstraints creates a bank dataset with constraints only (no
// data — reasoning is schema-level).
func loadBankConstraints(t testing.TB, c *http.Client, base, name string) *cind.ConstraintSet {
	t.Helper()
	spec := bankSpec(t)
	do(t, c, http.MethodPut, base+"/datasets/"+name+"/constraints", []byte(spec), http.StatusOK)
	set, err := cind.ParseConstraints(spec)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// bankGoals is the implication round-trip body: the derivable Example 3.3
// goal and a refutable converse, stated without relation declarations.
const bankGoals = `
cind ex33: account_EDI[at; nil] <= interest[at; nil] { (_ || _) }
cind conv: interest[ab; nil] <= saving[ab; nil] { (_ || _) }
`

// TestImplicationEndpointDifferential: the endpoint's verdicts, proofs and
// counterexamples must equal a direct ConstraintSet.ImplyAll over the same
// parsed goals.
func TestImplicationEndpointDifferential(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	set := loadBankConstraints(t, c, ts.URL, "bank")

	body := do(t, c, http.MethodPost, ts.URL+"/datasets/bank/implication", []byte(bankGoals), http.StatusOK)
	var resp implicationResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode response: %v (%s)", err, body)
	}

	goals, err := decodeGoals([]byte(bankGoals), goalPrefix(set))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := set.ImplyAll(context.Background(), goals, cind.ImplicationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(direct) {
		t.Fatalf("endpoint returned %d results for %d goals", len(resp.Results), len(direct))
	}
	for i, out := range direct {
		want := encodeOutcome(goals[i].ID, out)
		if !reflect.DeepEqual(resp.Results[i], want) {
			t.Fatalf("goal %s: endpoint %+v != direct %+v", goals[i].ID, resp.Results[i], want)
		}
	}
	// The paper's verdicts, pinned: ex33 implied with a proof, the
	// converse refuted with a counterexample.
	if resp.Results[0].Verdict != "implied" || resp.Results[0].Proof == "" {
		t.Fatalf("ex33 = %+v, want an implied verdict with a proof", resp.Results[0])
	}
	if resp.Results[1].Verdict != "not-implied" || len(resp.Results[1].Counterexample) == 0 {
		t.Fatalf("conv = %+v, want a refutation with a counterexample", resp.Results[1])
	}
}

// TestConsistencyEndpointDifferential: the endpoint must return exactly
// what CheckConsistencyContext returns for the same budgets — verdict and
// witness — under a fixed seed.
func TestConsistencyEndpointDifferential(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	set := loadBankConstraints(t, c, ts.URL, "bank")

	body := do(t, c, http.MethodGet, ts.URL+"/datasets/bank/consistency?k=40&seed=5", nil, http.StatusOK)
	var resp consistencyWire
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode response: %v (%s)", err, body)
	}
	ans, err := set.CheckConsistencyContext(context.Background(), cind.CheckOptions{K: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Consistent != ans.Consistent {
		t.Fatalf("endpoint consistent=%v, direct=%v", resp.Consistent, ans.Consistent)
	}
	if !resp.Consistent {
		t.Fatal("the bank constraints are consistent")
	}
	want := consistencyWire{Consistent: true}
	if ans.Witness != nil {
		want.Witness = encodeDatabase(ans.Witness)
	}
	if !reflect.DeepEqual(resp, want) {
		t.Fatalf("witness diverged:\nendpoint: %+v\ndirect:   %+v", resp, want)
	}
	// The SAT method is served too.
	do(t, c, http.MethodGet, ts.URL+"/datasets/bank/consistency?method=sat&seed=5", nil, http.StatusOK)
}

// TestMinimizeEndpointRoundTrip: minimizing the bank set extended with a
// redundant duplicate drops it with an Implied certificate, and the
// returned constraint text is directly servable: PUT it to a fresh
// dataset, load the same data, and the violation stream matches the
// minimized set's direct report.
func TestMinimizeEndpointRoundTrip(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	spec := bankSpec(t) + "\ncind dup_psi3: saving[ab; nil] <= interest[ab; nil] {\n  (_ || _)\n}\n"
	do(t, c, http.MethodPut, ts.URL+"/datasets/bank/constraints", []byte(spec), http.StatusOK)

	body := do(t, c, http.MethodPost, ts.URL+"/datasets/bank/minimize", nil, http.StatusOK)
	var resp minimizeWire
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode response: %v (%s)", err, body)
	}
	if len(resp.Dropped) == 0 {
		t.Fatal("the planted duplicate must be dropped")
	}
	sawDup := false
	for _, d := range resp.Dropped {
		if d.Verdict != "implied" {
			t.Fatalf("dropped %s with verdict %s", d.ID, d.Verdict)
		}
		if d.Proof == "" && d.Reason == "" {
			t.Fatalf("dropped %s without a certificate", d.ID)
		}
		if d.ID == "dup_psi3" || d.ID == "psi3" {
			sawDup = true
		}
	}
	if !sawDup {
		t.Fatalf("neither psi3 twin was dropped: %+v", resp.Dropped)
	}
	set, err := cind.ParseConstraints(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kept+len(resp.Dropped) != set.Len() {
		t.Fatalf("kept %d + dropped %d != original %d", resp.Kept, len(resp.Dropped), set.Len())
	}

	// Round-trip: the minimized text must be servable as-is, streaming
	// exactly the direct iterator's violations in its order.
	do(t, c, http.MethodPut, ts.URL+"/datasets/minbank/constraints",
		[]byte(resp.Constraints), http.StatusOK)
	for _, rel := range bankRelations {
		csvBytes, err := os.ReadFile(filepath.Join(bankDir(), rel+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		do(t, c, http.MethodPut, ts.URL+"/datasets/minbank?relation="+rel, csvBytes, http.StatusOK)
	}
	got := streamViolations(t, c, ts.URL+"/datasets/minbank/violations")

	minSet, err := cind.ParseConstraints(resp.Constraints)
	if err != nil {
		t.Fatalf("minimized constraints text does not parse: %v", err)
	}
	db := cind.NewDatabase(minSet.Schema())
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
	chk, err := cind.NewChecker(db, minSet)
	if err != nil {
		t.Fatal(err)
	}
	want := collectDirect(t, chk)
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("served minimized violations diverge:\n%v\nvs direct:\n%v", got, want)
	}
}

// TestReasoningErrorSurface pins the reasoning endpoints' error contract.
func TestReasoningErrorSurface(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	loadBankConstraints(t, c, ts.URL, "bank")

	cases := []struct {
		name, method, url string
		body              string
		want              int
	}{
		{"implication unknown dataset", http.MethodPost, "/datasets/nope/implication", bankGoals, http.StatusNotFound},
		{"consistency unknown dataset", http.MethodGet, "/datasets/nope/consistency", "", http.StatusNotFound},
		{"minimize unknown dataset", http.MethodPost, "/datasets/nope/minimize", "", http.StatusNotFound},
		{"implication empty body", http.MethodPost, "/datasets/bank/implication", "", http.StatusBadRequest},
		{"implication parse error", http.MethodPost, "/datasets/bank/implication", "cind broken[", http.StatusBadRequest},
		{"implication cfd clause", http.MethodPost, "/datasets/bank/implication",
			"cfd x: interest(ct -> rt) { (_ || _) }", http.StatusBadRequest},
		{"implication unknown relation", http.MethodPost, "/datasets/bank/implication",
			"cind g: nosuch[a; nil] <= interest[ab; nil] { (_ || _) }", http.StatusBadRequest},
		{"implication bad parallel", http.MethodPost, "/datasets/bank/implication?parallel=-1", bankGoals, http.StatusBadRequest},
		{"implication bad max_valuations", http.MethodPost, "/datasets/bank/implication?max_valuations=0", bankGoals, http.StatusBadRequest},
		{"consistency bad k", http.MethodGet, "/datasets/bank/consistency?k=0", "", http.StatusBadRequest},
		{"consistency bad seed", http.MethodGet, "/datasets/bank/consistency?seed=x", "", http.StatusBadRequest},
		{"consistency bad method", http.MethodGet, "/datasets/bank/consistency?method=oracle", "", http.StatusBadRequest},
		{"implication wrong verb", http.MethodGet, "/datasets/bank/implication", "", http.StatusMethodNotAllowed},
		{"consistency wrong verb", http.MethodPost, "/datasets/bank/consistency", "", http.StatusMethodNotAllowed},
		{"minimize wrong verb", http.MethodGet, "/datasets/bank/minimize", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := do(t, c, tc.method, ts.URL+tc.url, []byte(tc.body), tc.want)
			if tc.want != http.StatusMethodNotAllowed {
				var e errorWire
				if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
					t.Fatalf("error body %q does not carry the error", out)
				}
			}
		})
	}
}

// TestReasoningMetrics: the expvar counters advance with served reasoning.
func TestReasoningMetrics(t *testing.T) {
	s, ts := startServer(t)
	c := ts.Client()
	loadBankConstraints(t, c, ts.URL, "bank")

	do(t, c, http.MethodPost, ts.URL+"/datasets/bank/implication", []byte(bankGoals), http.StatusOK)
	do(t, c, http.MethodGet, ts.URL+"/datasets/bank/consistency?k=40&seed=5", nil, http.StatusOK)
	do(t, c, http.MethodPost, ts.URL+"/datasets/bank/minimize", nil, http.StatusOK)

	var metrics struct {
		Implication int64 `json:"implication_checks"`
		Consistency int64 `json:"consistency_checks"`
		Minimize    int64 `json:"minimize_runs"`
	}
	if err := json.Unmarshal(do(t, c, http.MethodGet, ts.URL+"/metrics", nil, http.StatusOK), &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Implication != 2 {
		t.Fatalf("implication_checks = %d, want 2", metrics.Implication)
	}
	if metrics.Consistency != 1 {
		t.Fatalf("consistency_checks = %d, want 1", metrics.Consistency)
	}
	if metrics.Minimize != 1 {
		t.Fatalf("minimize_runs = %d, want 1", metrics.Minimize)
	}
	_ = s
}

// slowReasonSpec is a dataset whose implication questions chase a growing
// cyclic Σ through 64 finite-domain case-split branches — reliably long
// enough to disconnect mid-flight.
const slowReasonSpec = `
relation R(A, B, P: finite(0, 1, 2, 3), Q: finite(0, 1, 2, 3), S: finite(0, 1, 2, 3))
relation T(C)

cind cyc: R[B; nil] <= R[A; nil] { (_ || _) }
`

const slowReasonGoal = `cind goal: R[A; nil] <= T[C; nil] { (_ || _) }`

// TestImplicationDisconnectLeavesNoWorkers mirrors the stream-disconnect
// leak test for the reasoning side: a client that abandons an in-flight
// implication request must leave no case-split workers (or handler
// goroutines) behind, and the server must keep serving afterwards.
func TestImplicationDisconnectLeavesNoWorkers(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	do(t, c, http.MethodPut, ts.URL+"/datasets/slow/constraints", []byte(slowReasonSpec), http.StatusOK)

	// Warm up the transport, then take the goroutine baseline.
	do(t, c, http.MethodGet, ts.URL+"/healthz", nil, http.StatusOK)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	// Raise the served chase budgets far beyond what 30ms can finish, so
	// the disconnect lands mid-computation.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/datasets/slow/implication?table_cap=1000000&chase_steps=1000000000",
		strings.NewReader(slowReasonGoal))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := c.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Give the handler time to start chasing, then vanish mid-request.
	time.Sleep(30 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("the budgeted implication cannot finish in 30ms; the disconnect must abort it")
	}
	c.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("abandoned implication leaked goroutines: %d before, %d after", before, g)
	}

	// The server must still serve reasoning.
	do(t, c, http.MethodGet, ts.URL+"/datasets/slow/consistency?k=2&seed=1", nil, http.StatusOK)
}

// TestGoalParseErrorLineNumbers: parse errors in an implication body must
// report line numbers relative to the request body, not the invisible
// schema preamble the server prepends.
func TestGoalParseErrorLineNumbers(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	loadBankConstraints(t, c, ts.URL, "bank")
	// Line 1 is valid, line 2 is broken.
	body := "cind g1: saving[ab; nil] <= interest[ab; nil] { (_ || _) }\ncind broken["
	out := do(t, c, http.MethodPost, ts.URL+"/datasets/bank/implication", []byte(body), http.StatusBadRequest)
	var e errorWire
	if err := json.Unmarshal(out, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "line 2") {
		t.Fatalf("error %q should locate the problem at body line 2", e.Error)
	}
}
