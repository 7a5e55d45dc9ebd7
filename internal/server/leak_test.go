package server

import (
	"bufio"
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// TestStreamClientDisconnectLeavesNoWorkers mirrors the engine's
// TestEachEarlyBreakStopsWorkers at the HTTP layer: a client that breaks
// mid-stream (context cancel, connection close) must leave no detect
// workers — or handler goroutines — behind. The dataset is violation-heavy
// and has no resident session, so the stream runs the engine's worker pool
// for its whole lifetime; the disconnect cancels the request context, which
// stops the pool before the handler returns.
func TestStreamClientDisconnectLeavesNoWorkers(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	do(t, c, http.MethodPut, ts.URL+"/datasets/bank?relation=checking",
		denseDirtyCSV(4000, 100), http.StatusOK)
	url := ts.URL + "/datasets/bank/violations"

	// Warm up the transport (conn goroutines persist in the idle pool) and
	// only then take the goroutine baseline.
	if got := streamViolations(t, c, url+"?limit=1"); len(got) != 1 {
		t.Fatalf("warm-up stream yielded %d violations, want 1", len(got))
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("no first violation before the disconnect: %v", err)
	}
	// Break mid-stream: cancel the request and close the connection while
	// the engine is still enumerating pairs.
	cancel()
	resp.Body.Close()
	c.CloseIdleConnections()

	// The worker pool and the handler goroutine must wind down; allow the
	// runtime a retry window to observe the exits.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("mid-stream disconnect leaked goroutines: %d before, %d after", before, g)
	}

	// The server must still serve: the next stream is complete and clean.
	full := streamViolations(t, c, url+"?limit=3")
	if len(full) != 3 {
		t.Fatalf("post-disconnect stream yielded %d violations, want 3", len(full))
	}
}
