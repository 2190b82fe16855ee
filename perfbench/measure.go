package main

import (
	"math"
	"sort"
	"time"
)

// samples is a latency series in seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

// pct returns the nearest-rank p-quantile (0 < p <= 1) of xs, or NaN when
// xs is empty. xs is sorted in place.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is pct(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return pct(append([]float64(nil), xs...), 0.5)
}

// maxOf returns the largest element of xs (NaN when empty).
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work on this
// workload reads 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
