package trace

import "time"

// Interval is a half-open time range [Start, End).
type Interval struct {
	Start time.Duration
	End   time.Duration
}

// Duration reports End-Start (zero for inverted intervals).
func (iv Interval) Duration() time.Duration {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// IntervalSet is an ordered list of intervals, typically non-overlapping.
type IntervalSet []Interval

// Total reports the summed duration of all intervals.
func (s IntervalSet) Total() time.Duration {
	var sum time.Duration
	for _, iv := range s {
		sum += iv.Duration()
	}
	return sum
}
