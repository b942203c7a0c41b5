package simtime

import (
	"sync"
	"time"
)

// Wall is the wall-clock engine used by the live manager/worker daemons.
// Callbacks fire from time.AfterFunc goroutines but are serialized with a
// dispatch mutex, and that mutex is the only lock the components on a wall
// engine have: like the virtual engine's dispatcher, it makes them one
// owner's. A goroutine that is not one of the engine's callbacks — a daemon's
// own, a test's, an accept loop — reaches those components only through Do.
//
// Like the virtual engine, Wall offers allocation-lean fast paths for the
// two hottest schedule shapes of a live daemon:
//
//   - ScheduleDetached draws its Timer (and the underlying runtime timer)
//     from a free-list; after the callback runs, both go back to the pool,
//     so fire-and-forget events (RPC frame delivery, process sleeps) stop
//     allocating a time.AfterFunc timer per event.
//   - Reschedule re-arms a fired timer in place (manager tick, kernel
//     completion loops), resetting the existing runtime timer instead of
//     allocating a fresh one.
type Wall struct {
	epoch time.Time

	// dispatchMu serializes all callbacks scheduled through this engine.
	dispatchMu sync.Mutex

	// mu guards the free-list and the arm/claim transitions of pooled and
	// rescheduled timers. It is never held while a callback runs, and never
	// acquired while dispatchMu is held by this package, so the two locks
	// never nest in conflicting order.
	mu   sync.Mutex
	free []*Timer
}

var _ Engine = (*Wall)(nil)

// NewWall returns a wall-clock engine whose epoch is the moment of creation.
func NewWall() *Wall {
	return &Wall{epoch: time.Now()}
}

// Now reports time elapsed since the engine epoch.
func (w *Wall) Now() time.Duration {
	return time.Since(w.epoch)
}

// Schedule runs fn after delay on a timer goroutine, serialized against all
// other callbacks of this engine.
func (w *Wall) Schedule(delay time.Duration, name string, fn func()) *Timer {
	if fn == nil {
		panic("simtime: Schedule with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	t := &Timer{when: w.Now() + delay, name: name, fn: fn, weng: w}
	// Arm under mu: fire() takes mu before touching the timer, so even an
	// immediate fire observes a fully initialized handle.
	w.mu.Lock()
	t.wt = time.AfterFunc(delay, func() { w.fire(t) })
	t.stop = t.wt.Stop
	w.mu.Unlock()
	return t
}

// ScheduleDetached schedules a fire-and-forget event whose Timer (and
// underlying runtime timer) come from the engine's free-list. With no handle
// escaping, both are recycled as soon as the callback returns.
func (w *Wall) ScheduleDetached(delay time.Duration, name string, fn func()) {
	if fn == nil {
		panic("simtime: ScheduleDetached with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	w.mu.Lock()
	var t *Timer
	if n := len(w.free); n > 0 {
		t = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		t.when, t.name, t.fn = w.Now()+delay, name, fn
		t.state.Store(timerPending)
		w.mu.Unlock()
		t.wt.Reset(delay)
		return
	}
	t = &Timer{when: w.Now() + delay, name: name, fn: fn, weng: w, pooled: true}
	t.wt = time.AfterFunc(delay, func() { w.fire(t) })
	w.mu.Unlock()
}

// Reschedule re-arms t — a timer previously returned by this engine's
// Schedule, whose handle the caller exclusively owns — with a new deadline,
// name and callback, reusing both the Timer and its runtime timer. A nil or
// foreign t falls back to a fresh Schedule. Safe to call from inside the
// timer's own callback (the self-rescheduling loop shape); a pending t is
// canceled first.
func (w *Wall) Reschedule(t *Timer, delay time.Duration, name string, fn func()) *Timer {
	if t == nil || t.weng != w || t.pooled {
		return w.Schedule(delay, name, fn)
	}
	if fn == nil {
		panic("simtime: Reschedule with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	w.mu.Lock()
	reusable := t.state.Load() == timerFired // fire already claimed: no stale dispatch can win
	if !reusable && t.state.CompareAndSwap(timerPending, timerCanceled) {
		// Still pending: if Stop wins, no fire is in flight and the claim
		// word is exclusively ours again.
		reusable = t.wt.Stop()
	}
	if !reusable {
		// A canceled-but-in-flight fire may still race the claim word:
		// leave this Timer to die and arm a fresh one.
		w.mu.Unlock()
		return w.Schedule(delay, name, fn)
	}
	t.when, t.name, t.fn = w.Now()+delay, name, fn
	t.state.Store(timerPending)
	w.mu.Unlock()
	t.wt.Reset(delay)
	return t
}

// Do runs fn under the dispatch mutex, serialized with every callback of this
// engine: it is the only way into a wall-engine component from a goroutine
// that is not one of its callbacks. fn must not wait for another callback
// (an RPC reply, a timer), which would need the mutex fn holds; it must not
// call Do either.
func (w *Wall) Do(fn func()) {
	w.dispatchMu.Lock()
	defer w.dispatchMu.Unlock()
	fn()
}

// fire claims and dispatches a wall timer, returning pooled timers to the
// free-list afterwards.
func (w *Wall) fire(t *Timer) {
	w.mu.Lock()
	if !t.state.CompareAndSwap(timerPending, timerFired) {
		w.mu.Unlock()
		return
	}
	fn := t.fn
	w.mu.Unlock()

	w.dispatchMu.Lock()
	fn()
	w.dispatchMu.Unlock()

	if t.pooled {
		w.mu.Lock()
		t.fn = nil
		t.name = ""
		w.free = append(w.free, t)
		w.mu.Unlock()
	}
}

// FreeListLen reports the pooled-timer count (for tests).
func (w *Wall) FreeListLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.free)
}
