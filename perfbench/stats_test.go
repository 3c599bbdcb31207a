package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {95, 10}, {90, 9}, {10, 1}, {1, 1}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.5, 2.2, 9.9, 4.4}, 1.35, 3.1, 7.15},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 4.528728688116765) {
		t.Errorf("geomean = %v", got)
	}
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2, 8) = %v", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {1, -2}} {
		if !math.IsNaN(geomean(xs)) {
			t.Errorf("geomean(%v) should be NaN", xs)
		}
	}
}
