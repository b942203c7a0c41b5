// Package simtime provides the time substrate every FreeRide component runs
// on: one deterministic discrete-event engine (Virtual), which a simulation
// drives as fast as its events allow and a live manager/worker daemon paces
// to the wall clock (Wall).
//
// Time advances only when the event queue is drained up to the next event,
// which makes multi-hour training runs simulate in milliseconds and makes
// every experiment bit-reproducible. A paced engine runs the same events in
// the same order, each no earlier than its deadline in real time, and every
// callback sees Now equal to its own deadline however late the host runs it:
// a live daemon's components behave exactly as a simulated session's.
//
// Every engine has one owner, and the components on it take no lock of their
// own. A virtual engine's owner is its dispatcher and the coroutines it
// resumes. A paced engine's dispatcher is whoever holds its Wall's mutex: a
// runtime timer's goroutine when the next event falls due, a socket's read
// pump delivering a frame, a daemon's own goroutine — each enters through
// Wall.Do.
//
// The engine also keeps *virtual wakes* (Virtual.Reserve): slots in its
// (when, seq) dispatch order that no callback occupies. A component that
// acts lazily instead of sleeping — simgpu's host leads — asks whether the
// dispatch order has passed its wake, and arms timers as if from inside it
// (Virtual.RescheduleAs), so it keeps the sleep's exact ordering without the
// sleep's event.
package simtime

import "time"

// Timer states, advanced monotonically: pending, then canceled or fired.
const (
	timerPending int32 = iota
	timerCanceled
	timerFired
)

// Timer is a handle for a scheduled callback.
type Timer struct {
	// when is the absolute engine-time deadline of the callback.
	when time.Duration
	// seq breaks ties among events with equal deadlines: lower runs first.
	seq uint64
	// name labels the event for debugging.
	name string
	fn   func()

	state int32
	// vkey orders timers armed as of virtual wakes (see wake below).
	vkey uint32

	// vq is the owning virtual engine; Cancel removes the timer from its
	// queue eagerly instead of leaving a dead entry for the dispatcher.
	vq *Virtual
	// pos is the timer's index within vq's queue structure — the heap, or
	// its wheel bucket — and -1 when not queued.
	pos int32
	// slot is the timer's wheel-bucket index, -1 when the timer lives in
	// the overflow heap. Only meaningful while pos >= 0.
	slot int32
	// pooled marks detached timers eligible for free-list recycling after
	// they fire. A raw *Timer to a pooled timer is inherently stale-prone
	// (the allocation is reused for unrelated events), so the plain Cancel
	// and Pending methods refuse pooled timers: a detached event cannot be
	// canceled.
	pooled bool

	// Virtual wakes (Virtual.Reserve, Virtual.RescheduleAs). wake marks a
	// reserved slot: queued like an event, never dispatched. Once the
	// dispatch order passes it, its seq becomes the seq the next scheduling
	// takes (its base) and vkey its rank<<16 among the wakes passed at that
	// base. A timer armed as of a wake carries vkey = rank<<16 | index+1 (0:
	// an ordinary timer) and, as of a passed wake, the wake's base as its
	// seq; as of a pending one, seq MaxUint64 and link naming the wake, whose
	// link names it back until the pass settles its key. A wake's state stays
	// pending when it passes; passed records the pass.
	wake   bool
	passed bool
	link   *Timer
}

// Name reports the debug label the timer was scheduled with.
func (t *Timer) Name() string { return t.name }

// Cancel prevents the callback from running. It reports whether the
// cancellation won: false means the callback already ran or is running.
// Canceling an already-canceled timer returns false. On a pooled (detached)
// timer Cancel is always a no-op: the *Timer may already back an unrelated
// recycled event, and killing that one would be a silent corruption. So is
// Cancel on a nil Timer — a reusable Reschedule handle that was never armed.
func (t *Timer) Cancel() bool {
	if t == nil || t.pooled {
		return false
	}
	if t.wake {
		return t.vq.cancelWake(t)
	}
	if t.state != timerPending {
		return false
	}
	t.state = timerCanceled
	t.vq.remove(t)
	return true
}

// Stopped reports whether the timer was canceled before firing.
func (t *Timer) Stopped() bool { return t.state == timerCanceled }

// Pending reports whether the timer is armed and has neither fired nor been
// canceled. Owners of a reusable Reschedule handle use this to skip re-arming
// a deadline that is already set.
// Like Cancel, Pending refuses pooled timers (always false): a recycled
// *Timer would otherwise report some unrelated event's state.
func (t *Timer) Pending() bool { return !t.pooled && t.state == timerPending }

// Fired reports whether the callback has already run (or started running).
func (t *Timer) Fired() bool { return t.state == timerFired }

// Passed reports whether the dispatch order has moved past a reserved wake
// (Virtual.Reserve): every event due before its (when, seq) slot has run, and
// none due after it. False for an ordinary timer and for a canceled wake.
func (t *Timer) Passed() bool { return t.passed }

// Before reports whether t's slot comes before u's in the virtual engine's
// dispatch order; both must be queued or pending wakes.
func (t *Timer) Before(u *Timer) bool { return timerLess(t, u) }

// ArmedAs reports whether t carries the order key Virtual.RescheduleAs(t, w,
// index, …) gives it — whether, firing now, t fires where a timer armed as
// of the wake w would.
func (t *Timer) ArmedAs(w *Timer, index int) bool {
	if w.passed {
		return t.link == nil && t.seq == w.seq && t.vkey == w.vkey|uint32(index+1)
	}
	return t.link == w && t.vkey == uint32(index+1)
}
