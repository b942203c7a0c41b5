package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualStartsAtZero(t *testing.T) {
	v := NewVirtual()
	if got := v.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestVirtualAdvancesToEventTime(t *testing.T) {
	v := NewVirtual()
	var at time.Duration
	v.Schedule(250*time.Millisecond, "probe", func() { at = v.Now() })
	if !v.Step() {
		t.Fatal("Step() = false, want true")
	}
	if at != 250*time.Millisecond {
		t.Fatalf("event observed t=%v, want 250ms", at)
	}
	if v.Now() != 250*time.Millisecond {
		t.Fatalf("Now() = %v after event, want 250ms", v.Now())
	}
}

func TestVirtualFIFOAmongEqualDeadlines(t *testing.T) {
	v := NewVirtual()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		v.Schedule(time.Second, "same", func() { order = append(order, i) })
	}
	v.MustDrain(100)
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (full order %v)", i, got, i, order)
		}
	}
}

func TestVirtualNegativeDelayClampsToNow(t *testing.T) {
	v := NewVirtual()
	v.Schedule(time.Second, "advance", func() {
		v.Schedule(-5*time.Second, "past", func() {
			if v.Now() != time.Second {
				t.Errorf("past event ran at %v, want 1s", v.Now())
			}
		})
	})
	v.MustDrain(10)
}

func TestVirtualCancel(t *testing.T) {
	v := NewVirtual()
	ran := false
	tm := v.Schedule(time.Second, "victim", func() { ran = true })
	if !tm.Cancel() {
		t.Fatal("Cancel() = false, want true")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel() = true, want false")
	}
	v.MustDrain(10)
	if ran {
		t.Fatal("canceled event ran")
	}
	if !tm.Stopped() || tm.Fired() {
		t.Fatalf("Stopped=%v Fired=%v, want true/false", tm.Stopped(), tm.Fired())
	}
}

func TestVirtualCancelAfterFire(t *testing.T) {
	v := NewVirtual()
	tm := v.Schedule(0, "x", func() {})
	v.MustDrain(10)
	if tm.Cancel() {
		t.Fatal("Cancel after fire = true, want false")
	}
	if !tm.Fired() {
		t.Fatal("Fired() = false after dispatch")
	}
}

func TestVirtualRunUntilHorizon(t *testing.T) {
	v := NewVirtual()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		v.Schedule(d, "e", func() { fired = append(fired, d) })
	}
	v.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if v.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", v.Now())
	}
	v.RunUntil(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events after second horizon, want 3", len(fired))
	}
	if v.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s (clock advances to horizon)", v.Now())
	}
}

func TestVirtualRunFor(t *testing.T) {
	v := NewVirtual()
	v.RunFor(time.Minute)
	if v.Now() != time.Minute {
		t.Fatalf("Now() = %v, want 1m", v.Now())
	}
	v.RunFor(time.Minute)
	if v.Now() != 2*time.Minute {
		t.Fatalf("Now() = %v, want 2m", v.Now())
	}
}

func TestVirtualEventSchedulesEvent(t *testing.T) {
	v := NewVirtual()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			v.Schedule(time.Second, "recurse", recurse)
		}
	}
	v.Schedule(time.Second, "recurse", recurse)
	v.MustDrain(100)
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if v.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", v.Now())
	}
}

func TestVirtualDrainLimit(t *testing.T) {
	v := NewVirtual()
	var loop func()
	loop = func() { v.Schedule(time.Millisecond, "loop", loop) }
	v.Schedule(0, "loop", loop)
	if n := v.Drain(50); n != 50 {
		t.Fatalf("Drain(50) = %d, want 50", n)
	}
}

func TestVirtualDispatchedCounter(t *testing.T) {
	v := NewVirtual()
	for i := 0; i < 7; i++ {
		v.Schedule(time.Duration(i)*time.Millisecond, "e", func() {})
	}
	v.MustDrain(100)
	if got := v.Dispatched(); got != 7 {
		t.Fatalf("Dispatched() = %d, want 7", got)
	}
}

// Property: events always fire in nondecreasing time order and exactly the
// non-canceled ones fire, regardless of insertion order.
func TestVirtualOrderingProperty(t *testing.T) {
	f := func(delaysMs []uint16, seed int64) bool {
		if len(delaysMs) == 0 {
			return true
		}
		if len(delaysMs) > 200 {
			delaysMs = delaysMs[:200]
		}
		rng := rand.New(rand.NewSource(seed))
		v := NewVirtual()
		var fireTimes []time.Duration
		var timers []*Timer
		for _, ms := range delaysMs {
			d := time.Duration(ms) * time.Millisecond
			timers = append(timers, v.Schedule(d, "p", func() {
				fireTimes = append(fireTimes, v.Now())
			}))
		}
		// Cancel a random subset before running.
		canceled := 0
		for _, tm := range timers {
			if rng.Intn(3) == 0 {
				tm.Cancel()
				canceled++
			}
		}
		v.MustDrain(uint64(len(delaysMs)) + 1)
		if len(fireTimes) != len(delaysMs)-canceled {
			return false
		}
		return sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock equals the max deadline among fired events after a
// full drain.
func TestVirtualClockMatchesMaxDeadline(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		v := NewVirtual()
		var maxT time.Duration
		for _, ms := range delaysMs {
			d := time.Duration(ms) * time.Millisecond
			if d > maxT {
				maxT = d
			}
			v.Schedule(d, "p", func() {})
		}
		v.MustDrain(uint64(len(delaysMs)) + 1)
		return v.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	NewVirtual().Schedule(0, "nil", nil)
}

// TestDetachedTimerRecycleSafety is the regression test for the pooled-Timer
// recycle hazard: once a detached event fires and its Timer goes back to the
// free-list, a stale raw *Timer to it must be inert. A stale Cancel would
// otherwise silently kill whatever unrelated event the recycled Timer is
// backing.
func TestDetachedTimerRecycleSafety(t *testing.T) {
	v := NewVirtual()

	v.ScheduleDetached(time.Second, "first", func() {})
	v.MustDrain(10)

	// The timer is now in the free-list; grab it white-box and let a new
	// event recycle it.
	if v.FreeListLen() != 1 {
		t.Fatalf("free list = %d, want 1", v.FreeListLen())
	}
	recycled := v.free[0]
	fired := false
	v.ScheduleDetached(time.Second, "second", func() { fired = true })
	if v.FreeListLen() != 0 {
		t.Fatal("detached schedule did not take the pooled timer")
	}

	// Stale raw handle: pooled timers refuse the plain Timer methods.
	if recycled.Cancel() {
		t.Fatal("raw Cancel on a recycled pooled timer reported success")
	}
	if recycled.Pending() {
		t.Fatal("raw Pending on a recycled pooled timer reported true")
	}
	v.MustDrain(10)
	if !fired {
		t.Fatal("the recycled timer's event was killed by a stale handle")
	}
}

// TestVirtualRescheduleInPlaceKeepsFIFO pins the in-place re-arm fast path's
// tie-break behavior: re-arming a pending timer must behave exactly like
// cancel+schedule — the event goes to the back of its deadline's FIFO.
func TestVirtualRescheduleInPlaceKeepsFIFO(t *testing.T) {
	v := NewVirtual()
	var order []string
	a := v.Schedule(time.Second, "a", func() { order = append(order, "a") })
	v.Schedule(time.Second, "b", func() { order = append(order, "b") })
	// Re-arm a (still pending) to the same deadline: it must now fire
	// after b, exactly as cancel+schedule would order it.
	v.Reschedule(a, time.Second, "a2", func() { order = append(order, "a2") })
	v.MustDrain(10)
	if len(order) != 2 || order[0] != "b" || order[1] != "a2" {
		t.Fatalf("order = %v, want [b a2]", order)
	}
}

func BenchmarkVirtualScheduleAndDispatch(b *testing.B) {
	v := NewVirtual()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Schedule(time.Duration(i%1000)*time.Microsecond, "bench", func() {})
		if i%1024 == 1023 {
			v.Drain(0)
		}
	}
	v.Drain(0)
}
