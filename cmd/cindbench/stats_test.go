package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n, perMille int
		want        float64
		ok          bool
	}{
		{n: 100, perMille: 500, want: 50, ok: true},
		{n: 101, perMille: 500, want: 51, ok: true},
		{n: 100, perMille: 900, want: 90, ok: true},   // exactly ten beyond
		{n: 99, perMille: 900, want: 90, ok: false},   // nine beyond
		{n: 1000, perMille: 990, want: 990, ok: true}, // exactly ten beyond
		{n: 999, perMille: 990, want: 990, ok: false},
		{n: 19, perMille: 500, want: 10, ok: false}, // the median needs ten behind it too
		{n: 1, perMille: 500, want: 1, ok: false},
	} {
		got, ok := percentile(seq(tc.n), tc.perMille)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %d‰) = %v, %v; want %v, %v", tc.n, tc.perMille, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 500); ok {
		t.Error("percentile of no samples reported as sufficient")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(4), 1.25, 3.75},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 7}, 4.5, 7.5}, // extrapolated, as Python does
	} {
		q1, q3 := quartiles(tc.vals)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.vals, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		b    []float64
		d    metricDef
		want string
	}{
		{"same", base, lower, "unchanged"},
		{"slower within bound", scale(1.05), lower, "unchanged"},
		{"slower past bound", scale(1.2), lower, "worse"},
		{"faster past spread", scale(0.9), lower, "better"},
		{"noisy", []float64{50, 150, 80, 120, 100, 60, 140, 100, 90, 110}, lower, "unresolved"},
		{"noisy but all faster", []float64{10, 30, 15, 25, 20, 12, 28, 20, 18, 22}, lower, "better"},
		{"higher is better", scale(0.8), metricDef{Name: "x", Better: "higher", Bound: 0.10}, "worse"},
		{"no bound", scale(2), metricDef{Name: "x", Better: "lower"}, "-"},
	} {
		if got := verdict(base, tc.b, tc.d); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
