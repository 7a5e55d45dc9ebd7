package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"cind/internal/stream"
)

// startBackendServer is startServer with Options.Backend set: every dataset
// detects through a private SQL backend instead of the in-memory engine.
func startBackendServer(t testing.TB, spec string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewWithOptions(Options{Backend: spec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewUnstartedServer(s)
	ts.Config.BaseContext = s.BaseContext
	ts.Start()
	t.Cleanup(ts.Close)
	return s, ts
}

// TestBackendServerParity: a -backend server's violation stream is
// violation-for-violation identical to the in-memory engine's, including
// the ?limit= prefix — the HTTP face of the sqlbackend differential suite.
func TestBackendServerParity(t *testing.T) {
	s, ts := startBackendServer(t, "mem:")
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")

	chk, _ := bankChecker(t)
	want := collectDirect(t, chk)
	if len(want) == 0 {
		t.Fatal("bank fixture is clean; the parity test needs violations")
	}

	got := streamViolations(t, c, ts.URL+"/datasets/bank/violations")
	assertSameOrder(t, "backend stream", got, want)

	limited := streamViolations(t, c, ts.URL+"/datasets/bank/violations?limit=1")
	assertSameOrder(t, "backend stream limit=1", limited, want[:1])

	// The backend pins no plan, so every read runs its queries afresh: a
	// repeated read neither fills nor hits the body memo.
	again := rawStream(t, c, ts.URL+"/datasets/bank/violations", stream.NDJSON)
	if first := rawStream(t, c, ts.URL+"/datasets/bank/violations", stream.NDJSON); !bytes.Equal(again, first) {
		t.Fatalf("repeated backend reads differ:\n%s\n%s", first, again)
	}
	assertMemo(t, s, "backend", 0, 0)
}

// TestBackendServerReplaceAndDelete: re-PUTting constraints swaps in a
// fresh backend database (the old handle is closed, the new dataset starts
// empty), and DELETE closes the dataset's backend without disturbing
// others.
func TestBackendServerReplaceAndDelete(t *testing.T) {
	_, ts := startBackendServer(t, "mem:")
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	if got := streamViolations(t, c, ts.URL+"/datasets/bank/violations"); len(got) == 0 {
		t.Fatal("no violations before replace")
	}

	// Replace: same spec, no data — the stream must come from the fresh
	// (empty, hence clean) mirror, not the displaced one.
	do(t, c, http.MethodPut, ts.URL+"/datasets/bank/constraints", []byte(bankSpec(t)), http.StatusOK)
	if got := streamViolations(t, c, ts.URL+"/datasets/bank/violations"); len(got) != 0 {
		t.Fatalf("replaced dataset streams %d violations, want 0", len(got))
	}

	loadBankHTTP(t, c, ts.URL, "other")
	do(t, c, "DELETE", ts.URL+"/datasets/bank", nil, http.StatusNoContent)
	// The surviving dataset's backend still serves.
	chk, _ := bankChecker(t)
	assertSameOrder(t, "after delete", streamViolations(t, c, ts.URL+"/datasets/other/violations"), collectDirect(t, chk))
}

// TestBackendOptionValidated: a bad Options.Backend fails at construction,
// not at the first dataset creation.
func TestBackendOptionValidated(t *testing.T) {
	for _, spec := range []string{"mem", "nosuchdriver:x"} {
		if _, err := NewWithOptions(Options{Backend: spec}); err == nil {
			t.Errorf("NewWithOptions(Backend: %q) succeeded, want error", spec)
		}
	}
}
