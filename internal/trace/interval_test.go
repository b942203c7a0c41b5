package trace

import (
	"testing"
	"time"
)

func iv(startMs, endMs int) Interval {
	return Interval{
		Start: time.Duration(startMs) * time.Millisecond,
		End:   time.Duration(endMs) * time.Millisecond,
	}
}

func TestIntervalDuration(t *testing.T) {
	if got := iv(100, 300).Duration(); got != 200*time.Millisecond {
		t.Fatalf("Duration = %v, want 200ms", got)
	}
	if got := iv(300, 100).Duration(); got != 0 {
		t.Fatalf("inverted Duration = %v, want 0", got)
	}
}

func TestIntervalSetTotal(t *testing.T) {
	s := IntervalSet{iv(0, 50), iv(100, 400), iv(500, 500)}
	if got := s.Total(); got != 350*time.Millisecond {
		t.Fatalf("Total = %v, want 350ms", got)
	}
}
