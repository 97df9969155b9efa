package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples a tail percentile needs beyond it.
const minTail = 10

// percentile returns the nearest-rank q-quantile of samples (sorted in
// place). A quantile above the median is refused unless at least
// minTail samples lie beyond it: p99 needs 1000 samples.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want %d", q*100, n, n-rank, minTail)
	}
	return samples[rank-1], nil
}

// median of samples (sorted in place); 0 for none.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	n := len(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 as Python's statistics.quantiles(data,
// n=4) computes them (the default "exclusive" method), so that the
// steadiness report matches the acceptance check. It needs two values.
func quartiles(data []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
