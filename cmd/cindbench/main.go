// Command cindbench is the repository's end-to-end benchmark: a seeded load
// generator for the cindserve HTTP service, run in process over loopback,
// with an in-process oracle for every answer and an outside-in layer trace.
//
// One workload, one run — the form BENCHMARK.json names:
//
//	cindbench -workload scan-clean -seed 1 -seconds 20 -trace 0
//
// prints `workload metric value unit` lines and, last, one JSON object with
// the run's correctness, attempt and failure counts and its metrics: the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
//
// Every workload, each in a fresh child process, results to DIR:
//
//	cindbench -seed 1 -runs 5 -out DIR [-trace 1]
//
// writes DIR/results.json (and with -trace 1 DIR/trace-<workload>.jsonl).
// Two such files compare metric by metric against BENCHMARK.json's bounds:
//
//	cindbench compare [-bench BENCHMARK.json] A/results.json B/results.json
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		fs := flag.NewFlagSet("cindbench compare", flag.ContinueOnError)
		bench := fs.String("bench", "BENCHMARK.json", "the file holding the metric bounds")
		if err := fs.Parse(args[1:]); err != nil {
			return 2
		}
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: cindbench compare [-bench BENCHMARK.json] A/results.json B/results.json")
			return 2
		}
		return compareFiles(os.Stdout, *bench, fs.Arg(0), fs.Arg(1))
	}
	fs := flag.NewFlagSet("cindbench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload, in this process")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per run, after a warm-up of a tenth of that")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", ".bench_build/cindbench-out", "directory for results.json and trace files")
	runs := fs.Int("runs", 1, "runs per workload, without -workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cindbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "cindbench: -trace is 0 or 1")
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "cindbench: -seconds and -runs must be positive")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "cindbench:", err)
		return 1
	}
	if *name == "" {
		return runAll(*seed, *seconds, *trace == 1, *runs, *out)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "cindbench: no workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	r, err := runWorkload(w, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cindbench:", err)
		return 1
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cindbench:", err)
		return 1
	}
	if !r.correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// results is the file runAll writes and compare reads.
type results struct {
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Trace      bool        `json:"trace"`
	GoVersion  string      `json:"go"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Runs       []runResult `json:"runs"`
}

type runResult struct {
	Workload  string             `json:"workload"`
	Run       int                `json:"run"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runAll runs every workload runs times, each run in a fresh child process
// so no run inherits another's heap, caches or peak RSS.
func runAll(seed int64, seconds float64, trace bool, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cindbench:", err)
		return 1
	}
	res := results{Seed: seed, Seconds: seconds, Trace: trace, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	code := 0
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	for _, w := range workloads {
		for i := 1; i <= runs; i++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg, "-out", out)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			line, err := lastResult(stdout.Bytes(), os.Stdout)
			if err != nil || runErr != nil {
				fmt.Fprintf(os.Stderr, "cindbench: %s run %d: %v\n", w.name, i, errors.Join(runErr, err))
				code = 1
				if err != nil {
					continue
				}
			}
			rr := runResult{Workload: w.name, Run: i, Correct: line.Correct, Attempted: line.Attempted,
				Failed: line.Failed, Metrics: map[string]float64{}}
			for k, v := range line.Metrics {
				rr.Metrics[k] = v.Value
			}
			res.Runs = append(res.Runs, rr)
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(out, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cindbench:", err)
		return 1
	}
	return code
}

// lastResult echoes a child's output lines but the last and parses the
// last as its result line.
func lastResult(output []byte, echo *os.File) (resultLine, error) {
	var last []byte
	seen := false
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if seen {
			fmt.Fprintf(echo, "%s\n", last)
		}
		last, seen = append(last[:0], sc.Bytes()...), true
	}
	var line resultLine
	if !seen {
		return line, errors.New("no output")
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return line, fmt.Errorf("last line is not a result: %w", err)
	}
	return line, nil
}
