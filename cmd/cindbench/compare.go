package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// compareFiles prints one row per (workload, metric) found in either
// results file: each side's median and quartiles and a verdict against the
// metric's bound in BENCHMARK.json. It exits 1 when any bounded metric
// reads worse.
func compareFiles(out io.Writer, benchPath, aPath, bPath string) int {
	var bf benchmarkFile
	var a, b results
	for _, f := range []struct {
		path string
		into any
	}{{benchPath, &bf}, {aPath, &a}, {bPath, &b}} {
		data, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(data, f.into)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cindbench compare: %s: %v\n", f.path, err)
			return 2
		}
	}
	defs := append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...)
	fmt.Fprintf(out, "%-12s %-36s %-34s %-34s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict")
	worse, rows := 0, 0
	for _, w := range workloadNames() {
		for _, d := range defs {
			av, bv := a.values(w, d.Name), b.values(w, d.Name)
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			v := "missing"
			if len(av) > 0 && len(bv) > 0 {
				v = verdict(av, bv, d)
			}
			rows++
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-12s %-36s %-34s %-34s %7.2f%%  %s\n", w, d.Name, summary(av), summary(bv),
				100*(median(bv)/median(av)-1), v)
		}
	}
	fmt.Fprintf(out, "%d rows, %d worse\n", rows, worse)
	if worse > 0 {
		return 1
	}
	return 0
}

// values collects one metric of one workload across the runs.
func (r *results) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if v, ok := run.Metrics[metric]; ok && run.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

func summary(vs []float64) string {
	if len(vs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(vs), q1, q3)
}

// verdict compares B against the baseline A by the rule the benchmark's
// bounds serve. A metric without a bound gets none. When either side's
// spread (q3 - q1 over the median) exceeds the bound, the comparison is
// unresolved — unless every B run beats, or loses to, every A run. Past
// that, B is worse when its median is worse than A's by more than the
// bound, and better when it is better by more than A's own spread and B
// wins at least nine of ten runs paired by index; otherwise unchanged.
func verdict(a, b []float64, d metricDef) string {
	if d.Bound == 0 {
		return "-"
	}
	lower := d.Better == "lower"
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	medA, medB := median(a), median(b)
	q1A, q3A := quartiles(a)
	q1B, q3B := quartiles(b)
	if (q3A-q1A)/medA > d.Bound || (q3B-q1B)/medB > d.Bound {
		bestA, worstA := slices.Min(a), slices.Max(a)
		bestB, worstB := slices.Min(b), slices.Max(b)
		if !lower {
			bestA, worstA, bestB, worstB = worstA, bestA, worstB, bestB
		}
		switch {
		case better(worstB, bestA):
			return "better"
		case better(worstA, bestB):
			return "worse"
		}
		return "unresolved"
	}
	worseBy := (medB - medA) / medA
	if !lower {
		worseBy = -worseBy
	}
	if worseBy > d.Bound {
		return "worse"
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if -worseBy*medA > q3A-q1A && 10*wins >= 9*pairs {
		return "better"
	}
	return "unchanged"
}
