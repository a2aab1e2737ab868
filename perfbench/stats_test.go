package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n, p, rank, beyond int
	}{
		{1000, p99, 990, 10},
		{999, p99, 990, 9},
		{100, p90, 90, 10},
		{100, p99, 99, 1},
		{10, p50, 5, 5},
		{11, p50, 6, 5},
		{1, p99, 1, 0},
	}
	for _, c := range cases {
		if got := rank(c.n, c.p); got != c.rank {
			t.Errorf("rank(%d, %d) = %d, want %d", c.n, c.p, got, c.rank)
		}
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, %d) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	if got := percentile(seq(10), p50); got != 5 {
		t.Errorf("p50 of 1..10 = %g, want 5", got)
	}
	if got := percentile(seq(1000), p99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n, capP   int
		wantLabel string
		wantValue float64
	}{
		{1000, p99, "p99", 990}, // exactly 10 beyond p99
		{999, p99, "p90", 900},  // 9 beyond p99: fall back to p90
		{5000, p90, "p90", 4500},
		{100, p99, "p90", 90},
		{99, p99, "max", 99}, // 9 beyond p90: no percentile qualifies
		{8, p99, "max", 8},
	}
	for _, c := range cases {
		v, label := tail(seq(c.n), c.capP)
		if label != c.wantLabel || v != c.wantValue {
			t.Errorf("tail(n=%d, cap=%d) = %g %s, want %g %s", c.n, c.capP, v, label, c.wantValue, c.wantLabel)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	if g, ok := gmean([]float64{2, 8}); !ok || math.Abs(g-4) > 1e-12 {
		t.Errorf("gmean(2, 8) = %g, %t; want 4", g, ok)
	}
	if g, ok := gmean([]float64{3}); !ok || math.Abs(g-3) > 1e-12 {
		t.Errorf("gmean(3) = %g, %t; want 3", g, ok)
	}
	if _, ok := gmean(nil); ok {
		t.Error("gmean of nothing reported ok")
	}
	if _, ok := gmean([]float64{1, 0}); ok {
		t.Error("gmean with a zero reported ok")
	}
}

func TestRatioBase(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %g", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over an empty base = %g, want 0", got)
	}
}

// The quartiles must match Python's statistics.quantiles(values, n=4),
// the spread rule the benchmark is accepted by; expected values were
// produced by Python.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{3.1, 1.2, 9.9}, 1.2, 3.1, 9.9},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{0.91, 0.95, 0.97, 1.0, 1.02, 1.03, 1.06, 1.1, 1.2, 1.25, 1.3}, 0.97, 1.03, 1.2},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if got := median([]float64{0.3, 0.1, 0.2}); got != 0.2 {
		t.Errorf("median = %g, want 0.2", got)
	}
}
