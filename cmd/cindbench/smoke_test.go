package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runAsMain makes the test binary act as cindbench when runAll starts it as
// a child process.
const runAsMain = "CINDBENCH_TEST_RUN_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// TestWorkloadsSmoke runs every workload for a second, each in a child
// process and through its oracle, then one traced pass, and checks the
// shape of results.json and of the trace file. It asserts nothing about
// timing.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs every workload")
	}
	dir := t.TempDir()
	t.Setenv(runAsMain, "1")
	t.Setenv("TMPDIR", dir)
	if code := runAll(1, 1, false, 1, dir); code != 0 {
		t.Fatalf("runAll exited %d", code)
	}
	data, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res results
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("results.json: %v", err)
	}
	if len(res.Runs) != len(workloads) {
		t.Fatalf("results.json holds %d runs, want %d", len(res.Runs), len(workloads))
	}
	for i, r := range res.Runs {
		if r.Workload != workloads[i].name || !r.Correct || r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("run %+v: want %s, correct, attempted, none failed", r, workloads[i].name)
		}
		for _, d := range endToEnd {
			if v, ok := r.Metrics[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: metric %s = %v, %v; want a positive value", r.Workload, d.Name, v, ok)
			}
		}
	}

	w, _ := findWorkload("scan-dirty")
	rep, err := runWorkload(w, 1, 1, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("traced result line: %v", err)
	}
	if !line.Correct || len(line.Metrics) != len(perLayer) {
		t.Errorf("traced run: correct %v, %d metrics; want correct and %d", line.Correct, len(line.Metrics), len(perLayer))
	}
	f, err := os.Open(filepath.Join(dir, "trace-scan-dirty.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 0; sc.Scan(); n++ {
		var s span
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("trace line %d: %v", n, err)
		}
		if s.ID != n || s.End < s.Start || s.Parent >= n {
			t.Fatalf("trace line %d: %+v", n, s)
		}
		names[s.Name]++
	}
	for _, want := range []string{"op", "request", "headers", "decode", "layer.detect", "detect.run", "shard.merge", "wal.fsync"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span", want)
		}
	}
}
