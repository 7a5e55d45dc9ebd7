package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// crashSpec is the crash-test schema: every tuple sharing key "dup" with a
// distinct payload violates the FD, so the violation report is a direct
// function of which delta batches survived the crash.
const crashSpec = `relation T(a, b)

cfd key: T(a -> b) {
  (_ || _)
}
`

// crashBatch is batch i of the kill -9 stream: a unique marker tuple (its
// presence after recovery reveals exactly which prefix of the stream
// survived) plus a violation-producing tuple (so survival is visible in
// the report, not just the data).
func crashBatch(i int) []deltaWire {
	return []deltaWire{
		{Op: "+", Rel: "T", Tuple: []string{fmt.Sprintf("m%04d", i), "x"}},
		{Op: "+", Rel: "T", Tuple: []string{"dup", fmt.Sprintf("v%04d", i)}},
	}
}

// TestCrashHelperProcess is not a test: re-executed by
// TestKillNineRecoveryDifferential with CINDSERVE_CRASH_HELPER set, it
// runs a durable fsync=always server on a free port and blocks until the
// parent kill -9s it — a real process whose page cache and file
// descriptors die with it, which no in-process fault injection simulates.
func TestCrashHelperProcess(t *testing.T) {
	dir := os.Getenv("CINDSERVE_CRASH_HELPER")
	if dir == "" {
		t.Skip("helper process for TestKillNineRecoveryDifferential")
	}
	s, err := NewWithOptions(Options{DataDir: dir})
	if err != nil {
		fmt.Println("HELPER_ERR=", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("HELPER_ERR=", err)
		os.Exit(1)
	}
	fmt.Printf("HELPER_ADDR=http://%s\n", ln.Addr())
	hs := NewHTTPServer(s)
	if err := hs.Serve(ln); err != nil {
		fmt.Println("HELPER_ERR=", err)
		os.Exit(1)
	}
}

// TestKillNineRecoveryDifferential is the crash-recovery differential the
// durability layer exists for: a real subprocess server is SIGKILLed in the
// middle of a delta stream, restarted from its data directory, and the
// recovered /violations stream must match — violation for violation, in
// order — an uncrashed in-memory twin fed exactly the batches that
// survived. The survived set must itself be a prefix of the stream (WAL
// order = apply order) bounded by acked ≤ survived ≤ sent: every
// acknowledged batch durable (fsync=always), at most the one in-flight
// unacknowledged batch beyond that.
func TestKillNineRecoveryDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	helper := exec.Command(os.Args[0], "-test.run=^TestCrashHelperProcess$", "-test.v")
	helper.Env = append(os.Environ(), "CINDSERVE_CRASH_HELPER="+dir)
	stdout, err := helper.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	helper.Stderr = os.Stderr
	if err := helper.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		helper.Process.Kill()
		helper.Wait()
	}()

	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "HELPER_ADDR="); ok {
			base = addr
			break
		}
		if msg, ok := strings.CutPrefix(sc.Text(), "HELPER_ERR="); ok {
			t.Fatalf("helper failed to start: %s", msg)
		}
	}
	if base == "" {
		t.Fatalf("helper printed no address (scan err: %v)", sc.Err())
	}

	c := &http.Client{Timeout: 10 * time.Second}
	do(t, c, http.MethodPut, base+"/datasets/crash/constraints", []byte(crashSpec), http.StatusOK)

	// Stream batches until the kill severs the connection. sent counts
	// batches whose POST started, acked those whose 200 came back; the
	// batch in flight at the kill instant may or may not have reached the
	// log — both outcomes are legal, and the differential below accepts
	// exactly the range [acked, sent].
	const maxBatches = 150
	var sent, acked atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < maxBatches; i++ {
			sent.Add(1)
			body, err := wireBody(crashBatch(i))
			if err != nil {
				return
			}
			req, _ := http.NewRequest(http.MethodPost, base+"/datasets/crash/deltas", strings.NewReader(string(body)))
			resp, err := c.Do(req)
			if err != nil {
				return // the kill landed mid-request
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			acked.Add(1)
		}
	}()

	time.Sleep(60 * time.Millisecond) // let a few dozen batches through
	if err := helper.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	helper.Wait()
	<-done
	if acked.Load() == 0 {
		t.Skipf("kill landed before any batch was acknowledged (sent %d) — nothing to differentiate", sent.Load())
	}

	// Recover in this process from the dead server's directory.
	s2, err := NewWithOptions(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("recovery after kill -9: %v", err)
	}
	defer s2.Close()

	// The surviving markers must form a prefix of the stream: WAL record
	// order is apply order, and the log is applied whole.
	ds, ok := s2.dataset("crash")
	if !ok {
		t.Fatal("recovered server lost dataset \"crash\"")
	}
	d := ds.(*local)
	present := map[int]bool{}
	d.mu.Lock()
	for _, tup := range d.db.Instance("T").Tuples() {
		var i int
		if n, _ := fmt.Sscanf(tup[0].String(), "m%d", &i); n == 1 {
			present[i] = true
		}
	}
	d.mu.Unlock()
	survived := len(present)
	for i := 0; i < survived; i++ {
		if !present[i] {
			t.Fatalf("survived batches are not a prefix: %d batches recovered but batch %d missing", survived, i)
		}
	}
	if int64(survived) < acked.Load() || int64(survived) > sent.Load() {
		t.Fatalf("survived %d batches, want acked %d <= survived <= sent %d",
			survived, acked.Load(), sent.Load())
	}
	t.Logf("kill -9 after %d acked / %d sent batches; %d survived", acked.Load(), sent.Load(), survived)

	// The differential: recovered server vs an uncrashed twin fed exactly
	// the surviving prefix, compared over the same HTTP surface.
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	recovered := streamViolations(t, ts2.Client(), ts2.URL+"/datasets/crash/violations")

	twin := New()
	tsTwin := httptest.NewServer(twin)
	defer tsTwin.Close()
	ct := tsTwin.Client()
	do(t, ct, http.MethodPut, tsTwin.URL+"/datasets/crash/constraints", []byte(crashSpec), http.StatusOK)
	for i := 0; i < survived; i++ {
		postDeltas(t, ct, tsTwin.URL+"/datasets/crash/deltas", crashBatch(i), http.StatusOK)
	}
	want := streamViolations(t, ct, tsTwin.URL+"/datasets/crash/violations")
	assertSameOrder(t, "kill -9 recovery vs uncrashed twin", recovered, want)

	// No torn tail may linger in the log: the recovered server's own view
	// of its WAL must be fully valid (truncation already healed it).
	if c := s2.store.Counters(); c.TornTails.Load() > 1 {
		t.Fatalf("recovery reported %d torn tails for one crash", c.TornTails.Load())
	}
}

// wireBody marshals a batch the way postDeltas does, without a testing.TB.
func wireBody(batch []deltaWire) ([]byte, error) {
	return json.Marshal(deltasRequest{Deltas: batch})
}
