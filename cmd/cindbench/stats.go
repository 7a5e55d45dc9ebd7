package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a percentile with fewer behind it is one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank percentile of samples at perMille
// parts per thousand (500 for the median, 900 for p90) and whether at least
// minBeyond samples lie beyond it. samples must be sorted ascending.
func percentile(samples []float64, perMille int) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := (perMille*n + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1], n-rank >= minBeyond
}

// sortedMillis converts durations to sorted milliseconds.
func sortedMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median is the middle of the values, or the mean of the two middles.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) computes them (the default exclusive
// method), so a spread printed here matches one computed there.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(ld-1, j))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}
