package main

import (
	"fmt"
	"math"
	"sort"
)

// Percentiles are given in per-mille so that rank arithmetic stays exact:
// p50 = 500, p90 = 900, p99 = 990.
const (
	p50 = 500
	p90 = 900
	p99 = 990
)

// minBeyond is how many samples must lie above a percentile before it may
// serve as the reported tail.
const minBeyond = 10

// rank is the 1-based nearest-rank position of per-mille percentile p in
// n sorted samples: the smallest r with r ≥ p/1000·n, clamped to [1, n].
func rank(n, p int) int {
	r := (p*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie above the nearest-rank percentile.
func beyond(n, p int) int { return n - rank(n, p) }

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// tail picks the reported tail percentile: the highest of p99 and p90,
// not above capP, that has at least minBeyond samples beyond it. When none
// qualifies it reports the maximum. The label names the choice.
func tail(sorted []float64, capP int) (value float64, label string) {
	for _, p := range []int{p99, p90} {
		if p <= capP && beyond(len(sorted), p) >= minBeyond {
			return percentile(sorted, p), fmt.Sprintf("p%d", p/10)
		}
	}
	if len(sorted) == 0 {
		return 0, "max"
	}
	return sorted[len(sorted)-1], "max"
}

// gmean is the geometric mean of positive values; ok is false when there
// are none or one is not positive.
func gmean(xs []float64) (g float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	var s float64
	for _, x := range xs {
		if !(x > 0) {
			return 0, false
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), true
}

// ratio is num/den, or 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// quartiles returns Q1, median and Q3 with the method of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so
// the spread reported here is the one the benchmark's acceptance uses.
func quartiles(values []float64) (q1, med, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		// Python clamps j into 1..n-1 and then extrapolates with delta.
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// sortedMillis converts samples in seconds to sorted milliseconds.
func sortedMillis(samples []float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s * 1e3
	}
	sort.Float64s(out)
	return out
}
