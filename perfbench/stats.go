package main

import (
	"math"
	"sort"
)

// median returns the median of xs (NaN when empty). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail returns the highest of a fixed ladder of percentiles that
// leaves at least ten samples beyond it, with its value. With fewer
// than twenty samples no percentile qualifies and the median is
// returned: the caller reports the sample count beside it.
func tail(xs []float64) (pct, value float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 50, 0
	}
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p, percentile(s, p)
		}
	}
	return 50, percentile(s, 50)
}

// percentile interpolates linearly between the order statistics of the
// sorted slice s.
func percentile(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	r := p / 100 * float64(len(s)-1)
	i := int(r)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	f := r - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
