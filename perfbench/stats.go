package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// sorting xs in place. +Inf entries (failed requests) sort last, so a
// failure counts as beyond every limit. Returns NaN on no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(rank, 0)]
}

// medianOf returns the median over groups of each group's q-quantile.
func medianOf(groups [][]float64, q float64) float64 {
	qs := make([]float64, 0, len(groups))
	for _, g := range groups {
		if len(g) > 0 {
			qs = append(qs, percentile(append([]float64(nil), g...), q))
		}
	}
	return median(qs)
}

// median is percentile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// selfTime is the part of [start, end) that no child interval covers:
// the span's own work, the rest being time it spent waiting on children.
// Children may overlap each other or stick out of the parent.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, reach := int64(0), start
	for _, c := range iv {
		lo := max(c[0], reach)
		if c[1] > lo {
			covered += c[1] - lo
			reach = c[1]
		}
	}
	return end - start - covered
}

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
