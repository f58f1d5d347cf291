package main

import (
	"sort"
	"time"
)

// quantile reads the q-quantile (0 < q < 1) off the empirical CDF of sorted,
// interpolated linearly between its distinct values. Simulated latencies
// sit on the 100 ns grid of the poll loops, so the plain order statistic is
// the same grid point on every seed and moves only when half the samples
// cross a grid line; the interpolated ECDF moves as soon as any share of
// them does. On samples without ties it is the usual interpolated quantile.
func quantile(sorted []time.Duration, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	target := q * float64(n) // cumulative count to reach
	at := sort.Search(n, func(i int) bool { return float64(i+1) >= target })
	if at == n {
		at = n - 1
	}
	v := sorted[at]
	lo := sort.Search(n, func(i int) bool { return sorted[i] >= v }) // samples below v
	hi := sort.Search(n, func(i int) bool { return sorted[i] > v })  // samples at or below v
	if lo == 0 {
		return float64(v)
	}
	prev := sorted[lo-1]
	frac := (target - float64(lo)) / float64(hi-lo)
	return float64(prev) + frac*float64(v-prev)
}

// latencyStats summarises one rep's commit-latency samples in nanoseconds.
// It sorts samples in place.
func latencyStats(sorted []time.Duration) (p50, p99, mean float64) {
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum float64
	for _, s := range sorted {
		sum += float64(s)
	}
	if len(sorted) > 0 {
		mean = sum / float64(len(sorted))
	}
	return quantile(sorted, 0.50), quantile(sorted, 0.99), mean
}

// quartiles returns the first quartile, median and third quartile of values
// as Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method), which is what the driver's spread rule uses.
func quartiles(values []float64) (q1, med, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// fastest is the smallest of values (0 for none).
func fastest(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	m := values[0]
	for _, v := range values[1:] {
		m = min(m, v)
	}
	return m
}
