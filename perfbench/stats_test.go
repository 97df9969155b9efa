package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // reversed: percentile must sort
	}
	return v
}

func TestPercentileRefusesThinTail(t *testing.T) {
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	got, err := percentile(seq(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (nearest rank)", got)
	}
	if _, err := percentile(seq(10), 0.9); err == nil {
		t.Fatal("p90 of 10 samples must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
}

func TestPercentileMedianNeedsNoTail(t *testing.T) {
	got, err := percentile(seq(3), 0.5)
	if err != nil || got != 2 {
		t.Fatalf("p50 of 1..3 = %v, %v; want 2", got, err)
	}
}

// TestQuartilesMatchPython pins the values of Python's
// statistics.quantiles(data, n=4), the acceptance check's formula.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	} {
		q1, q2, q3 := quartiles(tc.data)
		for _, p := range [][2]float64{{q1, tc.q1}, {q2, tc.q2}, {q3, tc.q3}} {
			if math.Abs(p[0]-p[1]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, q2, q3, tc.q1, tc.q2, tc.q3)
				break
			}
		}
	}
}
