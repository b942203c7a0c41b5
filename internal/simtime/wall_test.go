package simtime

import (
	"sync"
	"testing"
	"time"
)

func TestWallNowAdvances(t *testing.T) {
	w := NewWall()
	a := w.Now()
	time.Sleep(2 * time.Millisecond)
	b := w.Now()
	if b <= a {
		t.Fatalf("Now() did not advance: %v then %v", a, b)
	}
}

func TestWallScheduleFires(t *testing.T) {
	w := NewWall()
	done := make(chan struct{})
	w.Schedule(time.Millisecond, "fire", func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("callback did not fire within 2s")
	}
}

func TestWallCancelPreventsFire(t *testing.T) {
	w := NewWall()
	fired := make(chan struct{}, 1)
	tm := w.Schedule(50*time.Millisecond, "victim", func() { fired <- struct{}{} })
	if !tm.Cancel() {
		t.Fatal("Cancel() = false, want true")
	}
	select {
	case <-fired:
		t.Fatal("canceled callback fired")
	case <-time.After(120 * time.Millisecond):
	}
}

func TestWallCallbacksSerialized(t *testing.T) {
	w := NewWall()
	var mu sync.Mutex
	inFlight := 0
	maxInFlight := 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		w.Schedule(time.Millisecond, "probe", func() {
			defer wg.Done()
			mu.Lock()
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
		})
	}
	wg.Wait()
	if maxInFlight != 1 {
		t.Fatalf("max concurrent callbacks = %d, want 1", maxInFlight)
	}
}

// TestWallDoSerializesWithCallbacks: goroutines that enter through Do and
// zero-delay callbacks increment one plain counter. Do is their only
// ordering, so under -race a Do that ran beside a callback is reported (and
// without -race the total can come up short).
func TestWallDoSerializesWithCallbacks(t *testing.T) {
	w := NewWall()
	const goroutines, perGoroutine, callbacks = 4, 500, 2000
	counter := 0
	var wg sync.WaitGroup
	wg.Add(goroutines + callbacks)
	for i := 0; i < callbacks; i++ {
		w.ScheduleDetached(0, "inc", func() {
			counter++
			wg.Done()
		})
	}
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				w.Do(func() { counter++ })
			}
		}()
	}
	wg.Wait()
	var total int
	w.Do(func() { total = counter })
	if want := goroutines*perGoroutine + callbacks; total != want {
		t.Fatalf("counter = %d, want %d", total, want)
	}
}

func TestWallNegativeDelayFiresSoon(t *testing.T) {
	w := NewWall()
	done := make(chan struct{})
	w.Schedule(-time.Second, "asap", func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("negative-delay callback did not fire")
	}
}

func TestWallDetachedFiresAndRecycles(t *testing.T) {
	w := NewWall()
	const rounds = 8
	for i := 0; i < rounds; i++ {
		done := make(chan struct{})
		w.ScheduleDetached(time.Millisecond, "detached", func() { close(done) })
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("detached callback %d did not fire", i)
		}
	}
	// Fired detached timers return to the free-list for reuse. (How many
	// distinct timers were minted depends on a benign race between the
	// waiter and the post-callback pooling, so only the lower bound is
	// asserted.)
	deadline := time.Now().Add(time.Second)
	for w.FreeListLen() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := w.FreeListLen(); n == 0 {
		t.Fatalf("free list empty after %d detached events, want pooled timers", rounds)
	}
}

func TestWallDetachedConcurrent(t *testing.T) {
	w := NewWall()
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	const n = 64
	wg.Add(n)
	for i := 0; i < n; i++ {
		w.ScheduleDetached(time.Duration(i%7)*time.Millisecond, "burst", func() {
			mu.Lock()
			fired++
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	if fired != n {
		t.Fatalf("fired = %d, want %d", fired, n)
	}
}

func TestWallRescheduleReusesTimer(t *testing.T) {
	w := NewWall()
	done := make(chan int, 4)
	tm := w.Schedule(time.Millisecond, "first", func() { done <- 1 })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("first fire missing")
	}
	tm2 := w.Reschedule(tm, time.Millisecond, "second", func() { done <- 2 })
	if tm2 != tm {
		t.Fatal("Reschedule of a fired wall timer should reuse the handle")
	}
	select {
	case v := <-done:
		if v != 2 {
			t.Fatalf("second fire delivered %d, want 2", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second fire missing")
	}
}

func TestWallRescheduleSelf(t *testing.T) {
	// The self-rescheduling loop shape (manager tick): re-arm from inside
	// the callback, several rounds, one Timer allocation.
	w := NewWall()
	done := make(chan struct{})
	var mu sync.Mutex
	var tm *Timer
	rounds := 0
	var tick func()
	tick = func() {
		mu.Lock()
		rounds++
		r := rounds
		if r < 5 {
			tm = w.Reschedule(tm, time.Millisecond, "tick", tick)
		}
		mu.Unlock()
		if r >= 5 {
			close(done)
		}
	}
	mu.Lock()
	tm = w.Schedule(time.Millisecond, "tick", tick)
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("self-rescheduling loop stalled")
	}
}

func TestWallReschedulePendingCancelsFirst(t *testing.T) {
	w := NewWall()
	done := make(chan int, 2)
	tm := w.Schedule(time.Hour, "never", func() { done <- 1 })
	w.Reschedule(tm, time.Millisecond, "soon", func() { done <- 2 })
	select {
	case v := <-done:
		if v != 2 {
			t.Fatalf("got fire %d, want 2 (re-armed callback)", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("re-armed callback did not fire")
	}
	select {
	case v := <-done:
		t.Fatalf("unexpected extra fire %d", v)
	case <-time.After(50 * time.Millisecond):
	}
}
