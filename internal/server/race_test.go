package server

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	cind "cind"
	"cind/internal/stream"
)

// TestConcurrentStreamsDeltasAndRepair hammers one dataset with concurrent
// NDJSON readers, delta writers and a repair — the serving mix the Checker's
// lock discipline must keep torn-report-free. Run under -race (ci.sh does).
// Every streamed line must parse as a complete violation, and after the
// writers' net-zero insert/delete churn the report content must equal the
// initial state's.
func TestConcurrentStreamsDeltasAndRepair(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	do(t, c, http.MethodPut, ts.URL+"/datasets/bank?relation=checking",
		denseDirtyCSV(300, 20), http.StatusOK)
	base := ts.URL + "/datasets/bank"

	// Build the resident session up front so streams walk immutable report
	// snapshots and writers are maintained incrementally — the serving
	// configuration. (Pre-session streams would serialize writers behind
	// every reader; that path is covered by the differential tests.)
	postDeltas(t, c, base+"/deltas", nil, http.StatusOK)
	initial := streamViolations(t, c, base+"/violations")
	if len(initial) == 0 {
		t.Fatal("workload too clean to detect torn reports")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Streaming readers: every line must be a complete, parseable report
	// entry — a torn write would fail the NDJSON parse.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := c.Get(base + "/violations")
				if err != nil {
					errs <- err
					return
				}
				var v violationWire
				dec := json.NewDecoder(resp.Body)
				for dec.More() {
					if err := dec.Decode(&v); err != nil {
						errs <- fmt.Errorf("torn stream line: %v", err)
						break
					}
					if v.Kind != "cfd" && v.Kind != "cind" {
						errs <- fmt.Errorf("torn violation: %+v", v)
						break
					}
				}
				resp.Body.Close()
			}
		}()
	}

	// Delta writers: each inserts its own tuples and deletes them again —
	// net-zero churn with report changes in between.
	for wr := 0; wr < 2; wr++ {
		wr := wr
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tup := []string{fmt.Sprintf("W%d-%d", wr, i), "Writer", "Addr", "555", "NYC"}
				for _, op := range []string{"+", "-"} {
					body, _ := json.Marshal(deltasRequest{Deltas: []deltaWire{{Op: op, Rel: "checking", Tuple: tup}}})
					resp, err := c.Post(base+"/deltas", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("delta batch = %d", resp.StatusCode)
					}
					resp.Body.Close()
				}
			}
		}()
	}

	// A repairer: Repair scans the database under the checker's read lock
	// while the writers hold its write lock in turns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			resp, err := c.Post(base+"/repair", "application/json", nil)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("repair = %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Net-zero churn: the final report holds exactly the initial content
	// (order may differ — delete/re-insert reorders the instance).
	assertSameMultiset(t, "final state", streamViolations(t, c, base+"/violations"), initial)

	// And it still equals a from-scratch direct detection over identical
	// final contents: the bank fixtures plus the dense dirty rows.
	chk, _ := bankChecker(t)
	in := chk.Database().Instance("checking")
	for _, row := range parseCSVRows(t, denseDirtyCSV(300, 20)) {
		in.Insert(cind.Consts(row...))
	}
	assertSameMultiset(t, "vs direct", initial, collectDirect(t, chk))
}

// TestMemoReadersRaceApply races readers in every encoding against a
// writer whose every batch grows the report. Each stream must decode to
// the report of some version — the direct twin's after some prefix of the
// batches — and a reader must never see an older version after a newer
// one, and once the writer is done every encoding serves the last
// version: a read served a body kept for another version fails one of
// these. Run under -race (ci.sh does).
func TestMemoReadersRaceApply(t *testing.T) {
	_, ts := startServer(t)
	c := ts.Client()
	loadBankHTTP(t, c, ts.URL, "bank")
	base := ts.URL + "/datasets/bank"
	postDeltas(t, c, base+"/deltas", nil, http.StatusOK)

	twin, _ := bankChecker(t)
	ctx := context.Background()
	if _, err := twin.Apply(ctx); err != nil {
		t.Fatal(err)
	}
	key := func(ws []violationWire) string { return strings.Join(wireStrings(t, ws), "\n") }
	version := map[string]int{key(collectDirect(t, twin)): 0}
	var batches [][]deltaWire
	rows := parseCSVRows(t, denseDirtyCSV(24, 3))
	for i := 0; i < len(rows); i += 2 {
		batch := []deltaWire{{Op: "+", Rel: "checking", Tuple: rows[i]}, {Op: "+", Rel: "checking", Tuple: rows[i+1]}}
		if _, err := twin.Apply(ctx,
			cind.InsertDelta("checking", cind.Consts(rows[i]...)),
			cind.InsertDelta("checking", cind.Consts(rows[i+1]...))); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, batch)
		version[key(collectDirect(t, twin))] = len(batches)
	}
	if len(version) != len(batches)+1 {
		t.Fatalf("%d distinct reports over %d versions; every batch must change the report", len(version), len(batches)+1)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for _, enc := range streamEncodings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for i := 0; i < 3*len(batches); i++ {
				req, _ := http.NewRequest(http.MethodGet, base+"/violations", nil)
				req.Header.Set("Accept", enc.ContentType())
				resp, err := c.Do(req)
				if err != nil {
					errs <- err
					return
				}
				got, err := stream.DecodeAll(resp.Body, enc)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("%s read %d: %v", enc, i, err)
					return
				}
				v, ok := version[key(got)]
				switch {
				case !ok:
					errs <- fmt.Errorf("%s read %d: %d violations equal no version's report", enc, i, len(got))
					return
				case v < last:
					errs <- fmt.Errorf("%s read %d: version %d after version %d", enc, i, v, last)
					return
				}
				last = v
			}
		}()
	}
	for _, batch := range batches {
		postDeltas(t, c, base+"/deltas", batch, http.StatusOK)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Once the writer is done, every encoding serves the last version.
	for _, enc := range streamEncodings {
		if v, ok := version[key(streamViolationsEnc(t, c, base+"/violations", enc))]; !ok || v != len(batches) {
			t.Fatalf("%s after the writer: version %d (known %v), want %d", enc, v, ok, len(batches))
		}
	}
}

func parseCSVRows(t testing.TB, data []byte) [][]string {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs[1:] // drop the header
}
