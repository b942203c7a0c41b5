// Package trace records time-evolving quantities of the simulation — GPU SM
// occupancy, memory consumption, pipeline op activity — as step-function time
// series, and recovers from them the below-threshold intervals the bubble
// profiler and the figure harnesses read.
//
// It plays the role the PyTorch profiler plays in the paper (§4.3): the
// source of SM-occupancy and memory curves from which bubbles are measured
// and from which Figures 1 and 8 are drawn.
package trace

import (
	"fmt"
	"sort"
	"time"
)

// Point is one step of a step-function series: the series holds value V from
// time T (inclusive) until the next point's T.
type Point struct {
	T time.Duration
	V float64
}

// Series is an append-only step-function time series, held by value: the zero
// value is an empty series whose value is 0 everywhere, and it allocates
// nothing until its first Add.
type Series struct {
	points []Point
}

// Add appends a (t, v) step. Appends must be in nondecreasing time order; a
// point at the same instant as the previous one overwrites it (last writer
// wins, matching "the value at t"). Consecutive equal values are coalesced.
func (s *Series) Add(t time.Duration, v float64) {
	n := len(s.points)
	if n > 0 {
		last := s.points[n-1]
		if t < last.T {
			panic(fmt.Sprintf("trace: Add(%v) before last point %v", t, last.T))
		}
		if t == last.T {
			s.points[n-1].V = v
			s.coalesceTail()
			return
		}
		if last.V == v {
			return // step to the same value: no information
		}
	}
	s.points = append(s.points, Point{T: t, V: v})
}

func (s *Series) coalesceTail() {
	n := len(s.points)
	if n >= 2 && s.points[n-1].V == s.points[n-2].V {
		s.points = s.points[:n-1]
	}
}

// At reports the series value at time t (0 before the first point).
func (s *Series) At(t time.Duration) float64 {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.points[i-1].V
}

// Points returns a copy of the underlying points.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Integrate returns the integral of the series over [t0, t1) in value·seconds.
func (s *Series) Integrate(t0, t1 time.Duration) float64 {
	if t1 <= t0 || len(s.points) == 0 {
		return 0
	}
	var sum float64
	// Walk segments overlapping [t0, t1).
	for i := range s.points {
		segStart := s.points[i].T
		segEnd := t1
		if i+1 < len(s.points) {
			segEnd = s.points[i+1].T
		}
		if segEnd <= t0 || segStart >= t1 {
			continue
		}
		if segStart < t0 {
			segStart = t0
		}
		if segEnd > t1 {
			segEnd = t1
		}
		sum += s.points[i].V * segEnd.Seconds()
		sum -= s.points[i].V * segStart.Seconds()
	}
	return sum
}

// Max returns the maximum value attained in [t0, t1), or 0 for an empty
// window. The value in force at t0 (set before t0) counts.
func (s *Series) Max(t0, t1 time.Duration) float64 {
	if t1 <= t0 {
		return 0
	}
	maxV := s.At(t0)
	for _, p := range s.points {
		if p.T >= t1 {
			break
		}
		if p.T >= t0 && p.V > maxV {
			maxV = p.V
		}
	}
	return maxV
}

// Below returns the intervals within [t0, t1) where the series value is
// strictly below threshold. This is how bubbles are recovered from an
// SM-occupancy trace.
func (s *Series) Below(threshold float64, t0, t1 time.Duration) IntervalSet {
	var out IntervalSet
	cur := t0
	curV := s.At(t0)
	open := time.Duration(-1)
	if curV < threshold {
		open = cur
	}
	for _, p := range s.points {
		if p.T <= t0 {
			continue
		}
		if p.T >= t1 {
			break
		}
		below := p.V < threshold
		if below && open < 0 {
			open = p.T
		}
		if !below && open >= 0 {
			out = append(out, Interval{Start: open, End: p.T})
			open = -1
		}
	}
	if open >= 0 && t1 > open {
		out = append(out, Interval{Start: open, End: t1})
	}
	return out
}
