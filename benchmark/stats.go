package main

import (
	"sort"
)

// ratio is a/b, and 0 where b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail is the tail statistic of a timing: the 2/3 quantile, which of 31
// samples is the 21st smallest — the highest with ten samples beyond it. A
// fixed quantile, not "ten from the top" of however many samples ran: a
// timed run holds more iterations the faster the code is, and a statistic
// that climbed towards the maximum with the count would read worse for it.
func tail(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[2*(len(s)-1)/3]
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive), which is what the
// acceptance rule for the benchmark's spread uses. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-based, clamped to the data before the
		// interpolation weight is taken, as Python does
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
