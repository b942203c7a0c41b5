package trace

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesAtEmptyIsZero(t *testing.T) {
	var s Series
	if got := s.At(5 * time.Second); got != 0 {
		t.Fatalf("At on empty = %v, want 0", got)
	}
}

func TestSeriesStepSemantics(t *testing.T) {
	var s Series
	s.Add(1*time.Second, 1.0)
	s.Add(3*time.Second, 0.0)
	s.Add(5*time.Second, 0.5)
	tests := []struct {
		at   time.Duration
		want float64
	}{
		{0, 0},
		{999 * time.Millisecond, 0},
		{1 * time.Second, 1.0},
		{2 * time.Second, 1.0},
		{3 * time.Second, 0.0},
		{4 * time.Second, 0.0},
		{5 * time.Second, 0.5},
		{100 * time.Second, 0.5},
	}
	for _, tc := range tests {
		if got := s.At(tc.at); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestSeriesSameInstantOverwrites(t *testing.T) {
	var s Series
	s.Add(time.Second, 1.0)
	s.Add(time.Second, 2.0)
	if got := s.At(time.Second); got != 2.0 {
		t.Fatalf("At(1s) = %v, want 2 (last write wins)", got)
	}
	if n := len(s.Points()); n != 1 {
		t.Fatalf("%d points, want 1", n)
	}
}

func TestSeriesCoalescesEqualValues(t *testing.T) {
	var s Series
	s.Add(1*time.Second, 1.0)
	s.Add(2*time.Second, 1.0)
	s.Add(3*time.Second, 1.0)
	if n := len(s.Points()); n != 1 {
		t.Fatalf("%d points, want 1 (equal steps coalesced)", n)
	}
}

func TestSeriesAddBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards Add")
		}
	}()
	var s Series
	s.Add(2*time.Second, 1)
	s.Add(1*time.Second, 2)
}

func TestSeriesIntegrate(t *testing.T) {
	var s Series
	s.Add(0, 1.0)
	s.Add(2*time.Second, 0.5)
	s.Add(4*time.Second, 0.0)
	// integral over [0,4) = 1*2 + 0.5*2 = 3
	if got := s.Integrate(0, 4*time.Second); math.Abs(got-3.0) > 1e-9 {
		t.Fatalf("Integrate(0,4s) = %v, want 3", got)
	}
	// integral over [1,3) = 1*1 + 0.5*1 = 1.5
	if got := s.Integrate(1*time.Second, 3*time.Second); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("Integrate(1s,3s) = %v, want 1.5", got)
	}
	// past the last point the final value holds
	if got := s.Integrate(4*time.Second, 8*time.Second); got != 0 {
		t.Fatalf("Integrate(4s,8s) = %v, want 0", got)
	}
}

func TestSeriesMax(t *testing.T) {
	var s Series
	s.Add(0, 1.0)
	s.Add(1*time.Second, 5.0)
	s.Add(2*time.Second, 2.0)
	if got := s.Max(0, 3*time.Second); got != 5.0 {
		t.Fatalf("Max = %v, want 5", got)
	}
	if got := s.Max(2*time.Second, 3*time.Second); got != 2.0 {
		t.Fatalf("Max tail = %v, want 2", got)
	}
}

func TestSeriesBelowFindsGaps(t *testing.T) {
	// Occupancy: busy(1.0) 0-2s, idle 2-3s, busy 3-5s, idle 5-6s.
	var s Series
	s.Add(0, 1.0)
	s.Add(2*time.Second, 0.0)
	s.Add(3*time.Second, 1.0)
	s.Add(5*time.Second, 0.0)
	gaps := s.Below(0.5, 0, 6*time.Second)
	want := IntervalSet{
		{Start: 2 * time.Second, End: 3 * time.Second},
		{Start: 5 * time.Second, End: 6 * time.Second},
	}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gap[%d] = %v, want %v", i, gaps[i], want[i])
		}
	}
}

func TestSeriesBelowStartsIdle(t *testing.T) {
	var s Series
	s.Add(2*time.Second, 1.0)
	gaps := s.Below(0.5, 0, 4*time.Second)
	if len(gaps) != 1 || gaps[0] != (Interval{Start: 0, End: 2 * time.Second}) {
		t.Fatalf("gaps = %v, want [0,2s)", gaps)
	}
}

// Property: for any series built from nonnegative steps, the integral over
// a window equals the sum over subwindows (additivity).
func TestSeriesIntegralAdditivity(t *testing.T) {
	f := func(stepsMs []uint8, vals []uint8) bool {
		var s Series
		tcur := time.Duration(0)
		n := len(stepsMs)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			tcur += time.Duration(stepsMs[i]+1) * time.Millisecond
			s.Add(tcur, float64(vals[i]%8))
		}
		end := tcur + time.Second
		whole := s.Integrate(0, end)
		mid := end / 3
		parts := s.Integrate(0, mid) + s.Integrate(mid, end)
		return math.Abs(whole-parts) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: over a random step series and window, Below's intervals are
// exactly the window's maximal below-threshold runs. They are sorted,
// nonempty, disjoint and inside [t0, t1); the series is below threshold
// throughout each; each is maximal (at an end inside the window the value is
// at least threshold, and just before a start after t0 too); and every
// below-threshold instant of the window is covered. A step series is constant
// between its points, so checking t0 and every point instant decides coverage.
func TestSeriesBelowIntervalsAreMaximalRuns(t *testing.T) {
	f := func(stepsMs []uint8, vals []uint8, thr, lo, hi uint16) bool {
		var s Series
		tcur := time.Duration(0)
		n := min(len(stepsMs), len(vals))
		for i := 0; i < n; i++ {
			tcur += time.Duration(stepsMs[i]%16) * time.Millisecond
			s.Add(tcur, float64(vals[i]%4))
		}
		// Thresholds land on the values as well as between them.
		threshold := float64(thr%9) / 2
		span := tcur + 10*time.Millisecond
		t0 := time.Duration(lo) * time.Millisecond % span
		t1 := t0 + time.Duration(hi)*time.Millisecond%span
		below := s.Below(threshold, t0, t1)
		in := func(x time.Duration) bool {
			for _, iv := range below {
				if iv.Start <= x && x < iv.End {
					return true
				}
			}
			return false
		}
		for i, iv := range below {
			if iv.Start < t0 || iv.End > t1 || iv.Start >= iv.End {
				return false
			}
			if i > 0 && below[i-1].End >= iv.Start {
				return false // unsorted, overlapping or touching
			}
			if s.At(iv.Start) >= threshold {
				return false
			}
			for _, p := range s.Points() {
				if p.T > iv.Start && p.T < iv.End && p.V >= threshold {
					return false
				}
			}
			if iv.End < t1 && s.At(iv.End) < threshold {
				return false
			}
			if iv.Start > t0 && s.At(iv.Start-1) < threshold {
				return false
			}
		}
		if t0 < t1 && s.At(t0) < threshold && !in(t0) {
			return false
		}
		for _, p := range s.Points() {
			if p.T > t0 && p.T < t1 && p.V < threshold && !in(p.T) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
