package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	cind "cind"

	"cind/internal/wal"
)

// startDurable launches a durable Server over dir behind httptest, wired
// the way cindserve wires it. The returned server is closed (WAL flushed)
// with the test; call ts.Close + s.Close earlier to simulate a clean
// restart boundary.
func startDurable(t testing.TB, dir string, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.DataDir = dir
	s, err := NewWithOptions(opts)
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

// metricsMap fetches /metrics and decodes the expvar JSON.
func metricsMap(t testing.TB, c *http.Client, url string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(do(t, c, http.MethodGet, url+"/metrics", nil, http.StatusOK), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDurableRecoveryDifferential is the tentpole invariant: load the bank
// fixtures and the fixture delta log into a durable server, restart it from
// disk alone, and the recovered violation stream must equal — violation for
// violation, in order — both the pre-restart stream and a direct-call twin
// that never touched disk.
func TestDurableRecoveryDifferential(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startDurable(t, dir, Options{})
	c := ts1.Client()
	loadBankHTTP(t, c, ts1.URL, "bank")
	wireBatches, directBatches := bankDeltaBatches(t)
	for i, batch := range wireBatches {
		postDeltas(t, c, ts1.URL+"/datasets/bank/deltas", batch, http.StatusOK)
		_ = i
	}
	before := streamViolations(t, c, ts1.URL+"/datasets/bank/violations")
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: nothing is re-uploaded; the dataset must come back from the
	// spec + WAL alone.
	s2, ts2 := startDurable(t, dir, Options{})
	c2 := ts2.Client()
	after := streamViolations(t, c2, ts2.URL+"/datasets/bank/violations")
	assertSameOrder(t, "recovered stream vs pre-restart stream", after, before)

	// And against a twin that was never persisted at all.
	chk, _ := bankChecker(t)
	for _, batch := range directBatches {
		if _, err := chk.Apply(t.Context(), batch...); err != nil {
			t.Fatal(err)
		}
	}
	assertSameOrder(t, "recovered stream vs in-memory twin", after, collectDirect(t, chk))

	// The recovered dataset serves writes: the next delta batch must give
	// the same diff as the twin's.
	d := cind.DeleteDelta("interest", cind.Consts("6000", "US", "saving", "4%"))
	wantDiff, err := chk.Apply(t.Context(), d)
	if err != nil {
		t.Fatal(err)
	}
	got := postDeltas(t, c2, ts2.URL+"/datasets/bank/deltas",
		[]deltaWire{{Op: "-", Rel: "interest", Tuple: []string{"6000", "US", "saving", "4%"}}}, http.StatusOK)
	assertSameDiff(t, "post-recovery delta", got, encodeDiff(wantDiff, 1))

	// Recovery stats made it to /metrics.
	m := metricsMap(t, c2, ts2.URL)
	if n, ok := m["wal_replayed_batches"].(float64); !ok || n < float64(len(wireBatches)) {
		t.Fatalf("wal_replayed_batches = %v, want >= %d", m["wal_replayed_batches"], len(wireBatches))
	}
	if _, ok := m["last_recovery_ms"].(float64); !ok {
		t.Fatalf("last_recovery_ms missing from metrics: %v", m)
	}
	_ = s2
}

// TestDurableCSVAfterChecker pins the post-checker CSV path: rows uploaded
// after the checker exists flow through Apply and must be logged like any
// delta batch, so a restart reproduces them.
func TestDurableCSVAfterChecker(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := startDurable(t, dir, Options{})
	c := ts1.Client()
	do(t, c, http.MethodPut, ts1.URL+"/datasets/bank/constraints", []byte(bankSpec(t)), http.StatusOK)
	// Force the checker into existence before any data arrives.
	if got := streamViolations(t, c, ts1.URL+"/datasets/bank/violations"); len(got) != 0 {
		t.Fatalf("empty dataset streamed %d violations", len(got))
	}
	for _, rel := range bankRelations {
		csvBytes, err := os.ReadFile(filepath.Join(bankDir(), rel+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		do(t, c, http.MethodPut, ts1.URL+"/datasets/bank?relation="+rel, csvBytes, http.StatusOK)
	}
	before := streamViolations(t, c, ts1.URL+"/datasets/bank/violations")
	ts1.Close()

	_, ts2 := startDurable(t, dir, Options{})
	after := streamViolations(t, ts2.Client(), ts2.URL+"/datasets/bank/violations")
	assertSameMultiset(t, "recovered CSV-after-checker load", after, before)
}

// TestDurableTornTailTruncated severs the WAL mid-frame — the on-disk state
// a kill -9 during an append leaves — and requires recovery to serve
// exactly the state at the last intact frame: the torn batch is gone, every
// batch before it intact, nothing corrupt served.
func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startDurable(t, dir, Options{})
	c := ts1.Client()
	loadBankHTTP(t, c, ts1.URL, "bank")
	wireBatches, directBatches := bankDeltaBatches(t)
	for _, batch := range wireBatches {
		postDeltas(t, c, ts1.URL+"/datasets/bank/deltas", batch, http.StatusOK)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last frame: keep all but its final 3 bytes, then append
	// header-shaped garbage for good measure.
	logPath := filepath.Join(dir, "bank", "wal.log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	records, validEnd := wal.Decode(raw)
	if int64(len(raw)) != validEnd || len(records) == 0 {
		t.Fatalf("clean shutdown left an invalid log: %d records, validEnd %d of %d", len(records), validEnd, len(raw))
	}
	torn := append(raw[:len(raw)-3:len(raw)-3], 0xde, 0xad, 0xbe, 0xef)
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := startDurable(t, dir, Options{})
	after := streamViolations(t, ts2.Client(), ts2.URL+"/datasets/bank/violations")

	// Twin: the CSV loads (the first frames) plus every delta batch except
	// the torn last one.
	chk, _ := bankChecker(t)
	for _, batch := range directBatches[:len(directBatches)-1] {
		if _, err := chk.Apply(t.Context(), batch...); err != nil {
			t.Fatal(err)
		}
	}
	assertSameOrder(t, "torn-tail recovery", after, collectDirect(t, chk))

	m := metricsMap(t, ts2.Client(), ts2.URL)
	if n, ok := m["wal_torn_tails"].(float64); !ok || n < 1 {
		t.Fatalf("wal_torn_tails = %v, want >= 1", m["wal_torn_tails"])
	}
}

// TestDurableSnapshotRecovery drives the snapshot cadence (every 2 batches)
// and checks that recovery through snapshot + WAL tail matches the
// never-persisted twin, that snapshots actually happened, and that replay
// skipped the records the snapshot covers.
func TestDurableSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startDurable(t, dir, Options{SnapshotBatches: 2})
	c := ts1.Client()
	loadBankHTTP(t, c, ts1.URL, "bank")
	wireBatches, directBatches := bankDeltaBatches(t)
	for _, batch := range wireBatches {
		postDeltas(t, c, ts1.URL+"/datasets/bank/deltas", batch, http.StatusOK)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "bank", "snap-*"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots on disk (err=%v) — cadence never tripped", err)
	}
	// The counter lives on the writing process's store (a restart starts
	// fresh), so check it before the restart boundary.
	if m := metricsMap(t, c, ts1.URL); m["snapshot_count"].(float64) < 1 {
		t.Fatalf("snapshot_count = %v, want >= 1", m["snapshot_count"])
	}
	before := streamViolations(t, c, ts1.URL+"/datasets/bank/violations")
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := startDurable(t, dir, Options{SnapshotBatches: 2})
	c2 := ts2.Client()
	after := streamViolations(t, c2, ts2.URL+"/datasets/bank/violations")
	assertSameOrder(t, "snapshot recovery vs pre-restart", after, before)
	chk, _ := bankChecker(t)
	for _, batch := range directBatches {
		if _, err := chk.Apply(t.Context(), batch...); err != nil {
			t.Fatal(err)
		}
	}
	assertSameMultiset(t, "snapshot recovery vs twin", after, collectDirect(t, chk))

	m := metricsMap(t, c2, ts2.URL)
	total := int64(1 /* CSV loads are one batch each */ *len(bankRelations) + len(wireBatches))
	if n, ok := m["wal_replayed_batches"].(float64); !ok || int64(n) >= total {
		t.Fatalf("wal_replayed_batches = %v, want < %d (snapshot should shorten replay)", m["wal_replayed_batches"], total)
	}
}

// TestDurableCreateFailAndDeleteLeaveNoOrphans is the on-disk hygiene
// contract: rejected creations (bad spec, name the store refuses) leave no
// directory behind, and DELETE removes the dataset's directory entirely —
// over repeated cycles the data dir ends exactly as it began.
func TestDurableCreateFailAndDeleteLeaveNoOrphans(t *testing.T) {
	dir := t.TempDir()
	_, ts := startDurable(t, dir, Options{})
	c := ts.Client()

	assertEntries := func(label string, want ...string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if len(got) != len(want) || (len(want) > 0 && !func() bool {
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}()) {
			t.Fatalf("%s: data dir holds %v, want %v", label, got, want)
		}
	}

	for cycle := 0; cycle < 3; cycle++ {
		// Bad spec: fails before any disk touch.
		do(t, c, http.MethodPut, ts.URL+"/datasets/ok/constraints", []byte("relation ("), http.StatusBadRequest)
		// Names the store refuses — hidden (collides with staging debris)
		// and non-ASCII — fail after staging; the staging dir must be gone.
		for _, bad := range []string{".hidden", "sp%20ace", "caf%C3%A9"} {
			do(t, c, http.MethodPut, ts.URL+"/datasets/"+bad+"/constraints", []byte(bankSpec(t)), http.StatusBadRequest)
		}
		assertEntries(fmt.Sprintf("cycle %d after failed creates", cycle))

		do(t, c, http.MethodPut, ts.URL+"/datasets/ok/constraints", []byte(bankSpec(t)), http.StatusOK)
		assertEntries(fmt.Sprintf("cycle %d after create", cycle), "ok")
		do(t, c, http.MethodDelete, ts.URL+"/datasets/ok", nil, http.StatusNoContent)
		assertEntries(fmt.Sprintf("cycle %d after delete", cycle))
		// And the registry agrees with the disk.
		do(t, c, http.MethodGet, ts.URL+"/datasets/ok", nil, http.StatusNotFound)
	}
}

// TestDurableReplaceResetsOnDisk re-PUTs a dataset's constraints and
// verifies the replacement is durable: after a restart the dataset is the
// fresh empty one, not the old data resurrected from a stale WAL.
func TestDurableReplaceResetsOnDisk(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startDurable(t, dir, Options{})
	c := ts1.Client()
	loadBankHTTP(t, c, ts1.URL, "bank")
	if got := streamViolations(t, c, ts1.URL+"/datasets/bank/violations"); len(got) == 0 {
		t.Fatal("bank fixtures streamed no violations — fixture drift?")
	}
	// Replace with the same spec: data resets now...
	do(t, c, http.MethodPut, ts1.URL+"/datasets/bank/constraints", []byte(bankSpec(t)), http.StatusOK)
	if got := streamViolations(t, c, ts1.URL+"/datasets/bank/violations"); len(got) != 0 {
		t.Fatalf("replaced dataset still streams %d violations", len(got))
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and stays reset across a restart.
	_, ts2 := startDurable(t, dir, Options{})
	if got := streamViolations(t, ts2.Client(), ts2.URL+"/datasets/bank/violations"); len(got) != 0 {
		t.Fatalf("restart resurrected %d violations from the replaced dataset", len(got))
	}
}

// TestDurableFsyncPolicies smoke-runs the three sync policies end to end:
// identical recovered state, and fsync counters that reflect the policy.
func TestDurableFsyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy string
	}{
		{"always", "always"},
		{"interval", "5ms"},
		{"off", "off"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			policy, err := wal.ParsePolicy(tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			s1, ts1 := startDurable(t, dir, Options{Fsync: policy})
			c := ts1.Client()
			loadBankHTTP(t, c, ts1.URL, "bank")
			before := streamViolations(t, c, ts1.URL+"/datasets/bank/violations")
			m := metricsMap(t, c, ts1.URL)
			if n := m["wal_fsyncs"].(float64); tc.name == "always" && n < float64(len(bankRelations)) {
				t.Fatalf("fsync=always made %v fsyncs for %d appends", n, len(bankRelations))
			} else if tc.name == "off" && n != 0 {
				t.Fatalf("fsync=off made %v fsyncs", n)
			}
			ts1.Close()
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			_, ts2 := startDurable(t, dir, Options{Fsync: policy})
			after := streamViolations(t, ts2.Client(), ts2.URL+"/datasets/bank/violations")
			assertSameOrder(t, tc.name+" recovery", after, before)
		})
	}
}

// TestInMemoryModeUnchanged pins that without a DataDir nothing touches
// disk and Close is a no-op: the durability layer must be strictly opt-in.
func TestInMemoryModeUnchanged(t *testing.T) {
	s, err := NewWithOptions(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	m := metricsMap(t, c, ts.URL)
	for _, k := range []string{"wal_appends", "wal_fsyncs", "snapshot_count", "last_recovery_ms"} {
		if _, present := m[k]; present {
			t.Fatalf("in-memory metrics expose durability gauge %q: %v", k, m)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("in-memory Close: %v", err)
	}
}

// TestHTTPServerHardening pins the NewHTTPServer contract — header-read and
// idle timeouts set, body/stream timeouts deliberately unset — and then
// proves the behavior: stalled-header connections are reaped by the server
// and never wedge it, while a normal request sails through alongside them.
func TestHTTPServerHardening(t *testing.T) {
	s := New()
	hs := NewHTTPServer(s)
	if hs.ReadHeaderTimeout != 10*time.Second || hs.IdleTimeout != 2*time.Minute {
		t.Fatalf("timeouts = header %v idle %v, want 10s / 2m", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("body timeouts = read %v write %v, want unbounded (streams)", hs.ReadTimeout, hs.WriteTimeout)
	}

	// Shrink the header window so the test observes the reaping quickly;
	// the mechanism under test is the wiring, not the constant.
	hs.ReadHeaderTimeout = 150 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// A pack of clients that connect and then stall mid-header, forever.
	var stalled []net.Conn
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\nX-Stall")); err != nil {
			t.Fatal(err)
		}
		stalled = append(stalled, conn)
	}

	// The server still answers a well-behaved client immediately.
	do(t, &http.Client{Timeout: 5 * time.Second}, http.MethodGet, base+"/healthz", nil, http.StatusOK)

	// And every staller is disconnected by the header timeout, not held.
	// (net/http may write a courtesy 408 before closing; what matters is
	// that the connection reaches EOF instead of living forever.)
	for i, conn := range stalled {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, conn); err != nil && strings.Contains(err.Error(), "timeout") {
			t.Fatalf("stalled conn %d: still open after the header window — accept capacity leaks", i)
		}
	}
}
