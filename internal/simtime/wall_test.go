package simtime

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// await fails t unless done closes within 2 s.
func await(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not happen within 2s", what)
	}
}

func TestWallNowAdvances(t *testing.T) {
	w := NewWall()
	var a, b time.Duration
	w.Do(func() { a = w.Engine().Now() })
	time.Sleep(2 * time.Millisecond)
	w.Do(func() { b = w.Engine().Now() })
	if b <= a {
		t.Fatalf("Now() did not advance: %v then %v", a, b)
	}
}

func TestWallScheduleFires(t *testing.T) {
	w := NewWall()
	done := make(chan struct{})
	w.Do(func() { w.Engine().Schedule(time.Millisecond, "fire", func() { close(done) }) })
	await(t, done, "the callback")
}

func TestWallCancelPreventsFire(t *testing.T) {
	w := NewWall()
	fired := make(chan struct{}, 1)
	canceled := false
	w.Do(func() {
		tm := w.Engine().Schedule(50*time.Millisecond, "victim", func() { fired <- struct{}{} })
		canceled = tm.Cancel()
	})
	if !canceled {
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
	wg.Add(16)
	w.Do(func() {
		for i := 0; i < 16; i++ {
			w.Engine().Schedule(time.Millisecond, "probe", func() {
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
	})
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
	w.Do(func() {
		for i := 0; i < callbacks; i++ {
			w.Engine().ScheduleDetached(0, "inc", func() {
				counter++
				wg.Done()
			})
		}
	})
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
	w.Do(func() { w.Engine().Schedule(-time.Second, "asap", func() { close(done) }) })
	await(t, done, "the negative-delay callback")
}

func TestWallRescheduleSelf(t *testing.T) {
	// The self-rescheduling loop shape (manager tick): re-arm from inside
	// the callback, several rounds, one Timer allocation.
	w := NewWall()
	done := make(chan struct{})
	var tm *Timer
	rounds := 0
	var tick func()
	tick = func() {
		rounds++
		if rounds < 5 {
			if next := w.Engine().Reschedule(tm, time.Millisecond, "tick", tick); next != tm {
				t.Error("Reschedule of a fired timer minted a new one")
			}
			return
		}
		close(done)
	}
	w.Do(func() { tm = w.Engine().Schedule(time.Millisecond, "tick", tick) })
	await(t, done, "the fifth tick")
}

// pacedRecord is what one run of pacedScript observed.
type pacedRecord struct {
	names []string
	late  []string // callbacks whose Now was not their deadline
	early []string // callbacks dispatched before their deadline in real time
}

// pacedScript schedules a script on v with every shape the daemons use:
// handles, detached events scheduled from a callback, ties at one instant, a
// canceled event and a re-armed one. Offsets are from v's Now at the call.
// clock, if set, reports real time on v's scale. done closes after the last
// callback.
func pacedScript(v *Virtual, rec *pacedRecord, clock func() time.Duration, done chan struct{}) {
	base := v.Now()
	at := func(name string, off time.Duration, then func()) func() {
		return func() {
			rec.names = append(rec.names, name)
			if v.Now() != base+off {
				rec.late = append(rec.late, name)
			}
			if clock != nil && clock() < v.Now() {
				rec.early = append(rec.early, name)
			}
			if then != nil {
				then()
			}
		}
	}
	ms := time.Millisecond
	v.Schedule(2*ms, "a", at("a", 2*ms, func() {
		v.ScheduleDetached(0, "a+0", at("a+0", 2*ms, nil))
		v.ScheduleDetached(3*ms, "a+3", at("a+3", 5*ms, nil))
	}))
	v.Schedule(2*ms, "b", at("b", 2*ms, nil))
	v.ScheduleDetached(5*ms, "c", at("c", 5*ms, nil))
	v.Schedule(4*ms, "x", at("x", 4*ms, nil)).Cancel()
	r := v.Schedule(time.Hour, "r", func() {})
	v.Reschedule(r, 5*ms, "r", at("r", 5*ms, func() {
		v.Schedule(3*ms, "last", at("last", 8*ms, func() { close(done) }))
	}))
	v.Schedule(5*ms, "d", at("d", 5*ms, nil))
}

// TestWallPacesVirtualOrder: a paced engine runs a script in the order the
// bare virtual engine runs it, each callback sees Now equal to its own
// deadline, and none runs before its deadline in real time.
func TestWallPacesVirtualOrder(t *testing.T) {
	var want pacedRecord
	v := NewVirtual()
	pacedScript(v, &want, nil, make(chan struct{}))
	v.MustDrain(100)

	var got pacedRecord
	w := NewWall()
	done := make(chan struct{})
	start := time.Now()
	w.Do(func() { pacedScript(w.Engine(), &got, func() time.Duration { return time.Since(w.epoch) }, done) })
	await(t, done, "the script's last callback")
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Errorf("script finished %v after it started, before its last deadline (8ms)", elapsed)
	}
	if !slices.Equal(got.names, want.names) {
		t.Errorf("paced order %v, want %v", got.names, want.names)
	}
	if len(want.late)+len(got.late) > 0 {
		t.Errorf("callbacks not at their deadline: virtual %v, paced %v", want.late, got.late)
	}
	if len(got.early) > 0 {
		t.Errorf("callbacks dispatched ahead of the clock: %v", got.early)
	}
}
