package simtime

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Virtual is the discrete-event engine. Events execute in timestamp order on
// the goroutine that calls Run/RunUntil/Step; between events, virtual time
// jumps directly to the next deadline.
//
// # One owner
//
// A virtual engine has exactly one owner: every entry point — Schedule,
// ScheduleDetached, Reschedule, Step, Timer.Cancel, the observers — is
// called from one thread of control at a time: the dispatcher (event
// callbacks, and code between Step calls) or a coroutine it is suspended in.
// Pipeline stages, side tasks and the control plane run as event-loop
// continuations on the dispatcher (simproc.SpawnInline), and a
// goroutine-process shell (simproc.Runtime.Spawn) is a coroutine of its
// resumer — its body calls Schedule and Now only between a callback's switch
// into it and its own next park, the coroutine switch being the
// happens-before edge. So the queue takes no lock. On an engine a Wall paces,
// the dispatcher is whoever holds the Wall's mutex, and every other
// goroutine — a socket's read pump, a daemon's own — enters through Wall.Do
// (freerpc.NewNetConn takes the *Wall for that).
//
// # Queue structure: near-term calendar wheel + 4-ary heap
//
// The queue is split by proximity to the clock. Events due within the wheel
// horizon (wheelSlots slots of wheelSlotWidth each, ≈ the manager's 1ms Tick
// rounded to a power of two, ~269ms total) live in a calendar wheel: an
// array of unordered per-slot buckets indexed by deadline, with a bitmap for
// first-non-empty scans. Everything further out goes to an indexed 4-ary
// min-heap on (when, seq) — no container/heap interface calls or any-boxing
// on the dispatch path, and Cancel removes its entry immediately via the
// stored index instead of leaving a dead timer to be reaped at pop time.
//
// The wheel is what absorbs the simulator's re-arm churn: a kernel
// completion whose deadline moves by nanoseconds on every rebalance stays in
// the same slot (Reschedule rewrites when/seq in place) or moves between two
// slots in O(1), where the heap would pay a sift either way. Buckets hold
// only near-simultaneous events, so the scan that orders a bucket at
// dispatch time is short; the global dispatch order — strictly (when, seq),
// FIFO among equal deadlines, across both structures — is identical to the
// pure heap's, a property pinned against the container/heap reference model.
//
// Detached events (ScheduleDetached) draw their Timers from a free-list,
// making the hottest schedule→fire loop allocation-free; no handle to one
// escapes, so a stale handle can never cancel an unrelated event.
//
// # Delivery batches
//
// ScheduleJoin is ScheduleDetached for bursts of same-instant deliveries
// (freerpc's typed messages): the callback joins the open batch — one queued
// event that runs its members in arrival order — when the batch is due at
// the same instant and no queued event at that instant has a higher
// sequence number than the batch. Then running the callback last in the
// batch is running it exactly where a fresh (when, seq) event would run:
// everything queued at that instant before it runs before the batch, and
// everything scheduled there after it gets a higher seq and runs after the
// batch. The rule is checked by one scan of the batch's wheel bucket; a
// deadline beyond the wheel horizon gets its own event. So batching changes
// how many events carry the callbacks, never their order, and Dispatched
// counts events — a batch once, however many members it ran.
//
// # Virtual wakes
//
// Reserve queues a wake: a (when, seq) slot taken exactly as Schedule would
// take it, whose "event" never runs — the dispatcher passes it on its way to
// the next real event, Dispatched and Pending leave it out, and Passed
// reports whether the dispatch order has moved beyond it. A component that
// replaces a sleep-then-act pair by acting lazily (simgpu's host leads) keeps
// the pair's exact order with it: RescheduleAs arms a timer as if it had
// been armed inside an event at the wake's slot — after everything
// scheduled before the dispatch order passed the wake, before everything
// scheduled after — whether the arming happens before the wake passes or at
// any later point before the timer is due. Keys stay totally ordered
// without renumbering: a passed wake records the seq the next scheduling
// would take (base); a timer armed as of it sorts before the real event
// holding that seq, behind earlier wakes passed at the same base, in arming
// order. Until its wake passes, such a timer sorts after every real seq and
// is due no earlier than the wake, so the pass always settles its key (and
// re-sifts it) before it can be dispatched.
type Virtual struct {
	// now is the dispatch clock: the deadline of the event running, or the
	// horizon of the last RunUntil.
	now time.Duration

	queue []*Timer
	seq   uint64

	// wheel is the near-term calendar: bucket i holds the events whose
	// deadline falls in absolute slot s with s%wheelSlots == i. All queued
	// events satisfy when >= now, and events land in the wheel only when
	// within the horizon, so each occupied bucket maps to exactly one
	// absolute slot and a forward scan from now's slot is time order.
	wheel [wheelSlots][]*Timer
	// wheelOcc is the non-empty-bucket bitmap (bit i = bucket i occupied).
	wheelOcc [wheelWords]uint64
	// wheelLen counts events currently in the wheel.
	wheelLen int
	// wheelHint is a lower bound on the absolute slot of every wheel event:
	// raised to the found slot by each min scan (and to now's slot, since
	// no event is in the past), lowered by inserts below it. When the
	// hinted bucket is still occupied — the common case of consecutive pops
	// from one slot — the min scan is a single bucket probe, no bitmap
	// walk.
	wheelHint int64

	// free is the Timer free-list. Only detached timers are recycled: a
	// *Timer returned by Schedule may be retained by the caller forever,
	// and a stale Cancel on a recycled handle would kill an unrelated
	// event. Pooled timers are therefore inert to the plain Timer methods:
	// a detached event cannot be canceled.
	free []*Timer

	// open is the batch ScheduleJoin may still add to (nil once it fires);
	// batches is the free-list of fired ones, kept with their member slices.
	open    *batch
	batches []*batch

	// dispatched counts events whose callbacks ran, for tests and stats.
	dispatched uint64

	// wakes[wakeHead:] are the pending virtual wakes in (when, seq) order,
	// apart from the event queue: the dispatcher passes the ones due before
	// each event it pops, advancing wakeHead (the passed prefix is dropped
	// when the list empties or would grow). passSeq and passRank rank the
	// wakes passed at one seq.
	wakes    []*Timer
	wakeHead int
	passSeq  uint64
	passRank uint32
}

// Calendar-wheel geometry. Slot width is 2^20ns ≈ 1.05ms — the manager's
// 1ms Tick grid rounded to a power of two so slot indexing is a shift — and
// 256 slots give a ~269ms horizon covering the kernel-completion deadlines
// of every shipped workload profile.
const (
	wheelSlotShift = 20
	wheelSlots     = 256
	wheelMask      = wheelSlots - 1
	wheelWords     = wheelSlots / 64
	// wheelBucketCap is each bucket's share of the slab NewVirtual carves
	// the buckets from: enough for the near-simultaneous events a slot
	// usually holds; a fuller bucket grows by append like any slice.
	wheelBucketCap = 4
)

// NewVirtual returns a virtual engine positioned at time zero. The wheel's
// buckets start as capacity-limited windows of one slab, so a session's first
// pass over the wheel costs one allocation instead of one (and its regrowths)
// per bucket touched.
func NewVirtual() *Virtual {
	v := &Virtual{}
	slab := make([]*Timer, wheelSlots*wheelBucketCap)
	for i := range v.wheel {
		lo := i * wheelBucketCap
		v.wheel[i] = slab[lo : lo : lo+wheelBucketCap]
	}
	return v
}

// Now reports the current virtual time.
func (v *Virtual) Now() time.Duration {
	return v.now
}

// Schedule enqueues fn at Now()+delay. Negative delays are clamped to "now":
// virtual time never moves backwards.
func (v *Virtual) Schedule(delay time.Duration, name string, fn func()) *Timer {
	if fn == nil {
		panic("simtime: Schedule with nil callback")
	}
	t := &Timer{when: v.deadline(delay), seq: v.seq, name: name, fn: fn, vq: v}
	v.seq++
	v.enqueue(t)
	return t
}

// ScheduleDetached enqueues a fire-and-forget event whose Timer comes from
// the free-list. With no handle escaping, the timer is recycled as soon as
// its callback returns.
func (v *Virtual) ScheduleDetached(delay time.Duration, name string, fn func()) {
	if fn == nil {
		panic("simtime: ScheduleDetached with nil callback")
	}
	v.detach(v.deadline(delay), name, fn)
}

// detach enqueues a pooled event at when and returns its Timer, which
// stays the engine's.
func (v *Virtual) detach(when time.Duration, name string, fn func()) *Timer {
	var t *Timer
	if n := len(v.free); n > 0 {
		t = v.free[n-1]
		v.free[n-1] = nil
		v.free = v.free[:n-1]
	} else {
		t = &Timer{vq: v, pooled: true}
	}
	t.when, t.seq, t.name, t.fn = when, v.seq, name, fn
	v.seq++
	v.enqueue(t)
	return t
}

// batch is one queued event running several joined callbacks (see
// ScheduleJoin). Batches and their member slices are recycled, so a
// steady-state delivery burst allocates nothing.
type batch struct {
	v    *Virtual
	t    *Timer // the batch's event; valid while the batch is open
	fns  []func()
	fire func() // b.run, bound once
}

// ScheduleJoin schedules a fire-and-forget callback like ScheduleDetached,
// but lets it ride in the open delivery batch when that keeps the dispatch
// order (the join rule in the type's doc). It reports whether fn joined an
// already-queued batch — one event fewer than ScheduleDetached would cost.
// Otherwise fn opens a new batch, or, beyond the wheel horizon, gets a plain
// detached event.
func (v *Virtual) ScheduleJoin(delay time.Duration, name string, fn func()) bool {
	if fn == nil {
		panic("simtime: ScheduleJoin with nil callback")
	}
	when := v.deadline(delay)
	if b := v.open; b != nil && b.t.when == when && v.lastAtInstant(b.t) {
		b.fns = append(b.fns, fn)
		return true
	}
	if v.wheelSlotFor(when) < 0 {
		v.detach(when, name, fn)
		return false
	}
	var b *batch
	if n := len(v.batches); n > 0 {
		b = v.batches[n-1]
		v.batches[n-1] = nil
		v.batches = v.batches[:n-1]
	} else {
		b = &batch{v: v}
		b.fire = b.run
	}
	b.fns = append(b.fns, fn)
	b.t = v.detach(when, name, b.fire)
	v.open = b
	return false
}

// lastAtInstant reports whether no queued event due at t's instant has
// a higher seq than t. t is in the wheel (a batch opens only within the
// horizon and the horizon only moves forward), so every event at its
// instant that was scheduled after it shares its bucket.
func (v *Virtual) lastAtInstant(t *Timer) bool {
	for _, u := range v.wheel[t.slot] {
		if u.when == t.when && timerLess(t, u) {
			return false
		}
	}
	for _, w := range v.wakes[v.wakeHead:] {
		if w.when == t.when && timerLess(t, w) {
			return false
		}
	}
	return true
}

// run is a batch's event callback: it closes the batch to joins, runs the
// members in arrival order and returns the batch to the free-list. Whatever
// a member schedules at this instant gets a fresh seq and runs after the
// batch, as it would after the member's own event.
func (b *batch) run() {
	v := b.v
	if v.open == b {
		v.open = nil
	}
	for i, fn := range b.fns {
		b.fns[i] = nil
		fn()
	}
	b.fns = b.fns[:0]
	v.batches = append(v.batches, b)
}

// Reschedule re-arms t — a timer previously returned by this engine's
// Schedule — with a new deadline, name and callback, reusing the Timer
// allocation. The caller must be the exclusive holder of the handle: any
// other retained copy could Cancel the re-armed event. A still-pending t is
// re-armed in place (a wheel event rewrites its deadline within its bucket
// or hops buckets in O(1); a heap event sifts, and may migrate into the
// wheel); a fired or canceled t is re-pushed. A nil or foreign t falls back
// to a fresh Schedule. This is the allocation-free path for the
// self-rescheduling loops (manager deadlines, kernel completion) whose Timer
// handle never leaves its owner.
func (v *Virtual) Reschedule(t *Timer, delay time.Duration, name string, fn func()) *Timer {
	if t == nil || t.vq != v || t.pooled {
		return v.Schedule(delay, name, fn)
	}
	if fn == nil {
		panic("simtime: Reschedule with nil callback")
	}
	t.when, t.seq, t.name, t.fn = v.deadline(delay), v.seq, name, fn
	t.vkey, t.link = 0, nil
	v.seq++
	if t.pos >= 0 {
		// In place: equivalent to cancel+push — the event gets a fresh seq
		// either way — minus the queue churn.
		v.rearm(t)
	} else {
		t.state = timerPending
		v.enqueue(t)
	}
	return t
}

// Reserve queues a virtual wake at Now()+delay (see the type's doc) and
// returns its handle, reusing w when non-nil: a zero Timer (one embedded in
// its owner) becomes a wake, a passed or canceled wake is queued afresh, a
// pending one moves. The wake takes the seq Schedule would have taken.
// Cancel withdraws it (false once it has passed); ask a wake Passed, not
// Fired or Pending. A timer still armed as of a pending w must not outlive
// the move: re-arm or cancel it.
func (v *Virtual) Reserve(w *Timer, delay time.Duration) *Timer {
	if w == nil {
		w = &Timer{}
	}
	if w.vq == nil {
		w.vq, w.wake, w.pos = v, true, -1
	} else if !w.passed && w.state == timerPending {
		if b := w.link; b != nil && b.link == w && b.state == timerPending {
			panic("simtime: Reserve moves a wake a pending timer is armed as of")
		}
		v.dropWake(w)
	}
	w.when, w.seq, w.vkey, w.link, w.passed = v.deadline(delay), v.seq, 0, nil, false
	v.seq++
	w.state = timerPending
	n := len(v.wakes)
	if n == cap(v.wakes) && v.wakeHead > 0 {
		// Reclaim the passed prefix instead of growing.
		n = copy(v.wakes, v.wakes[v.wakeHead:])
		clear(v.wakes[n:])
		v.wakes, v.wakeHead = v.wakes[:n], 0
	}
	v.wakes = append(v.wakes, w)
	// Wakes mostly arrive in order; an earlier one sinks into place.
	for i := n; i > v.wakeHead && timerLess(w, v.wakes[i-1]); i-- {
		v.wakes[i], v.wakes[i-1] = v.wakes[i-1], w
	}
	return w
}

// dropWake takes w off the pending wakes, if it is there.
func (v *Virtual) dropWake(w *Timer) {
	for i := v.wakeHead; i < len(v.wakes); i++ {
		if v.wakes[i] == w {
			copy(v.wakes[i:], v.wakes[i+1:])
			v.wakes[len(v.wakes)-1] = nil
			v.wakes = v.wakes[:len(v.wakes)-1]
			return
		}
	}
}

// cancelWake withdraws a pending wake (Timer.Cancel): false when it has
// passed or was canceled already.
func (v *Virtual) cancelWake(w *Timer) bool {
	if w.passed || w.state != timerPending {
		return false
	}
	w.state = timerCanceled
	v.dropWake(w)
	return true
}

// wakeDue reports whether a pending wake comes before t in the
// dispatch order.
func (v *Virtual) wakeDue(t *Timer) bool {
	return v.wakeHead < len(v.wakes) && timerLess(v.wakes[v.wakeHead], t)
}

// passWakes passes every pending wake whose slot comes before t's (all
// of them up to until, for t nil).
func (v *Virtual) passWakes(t *Timer, until time.Duration) {
	for ; v.wakeHead < len(v.wakes); v.wakeHead++ {
		w := v.wakes[v.wakeHead]
		if t != nil && !timerLess(w, t) || t == nil && w.when > until {
			break
		}
		v.pass(w)
	}
	if v.wakeHead == len(v.wakes) {
		v.wakes, v.wakeHead = v.wakes[:0], 0
	}
}

// RescheduleAs re-arms t (nil: a new timer) at the absolute instant when,
// clamped to Now, keyed as the index-th timer armed inside an event at the
// wake w's slot would be (see the type's doc). w must be pending or passed.
// At most one timer at a time may be armed as of a pending wake.
func (v *Virtual) RescheduleAs(t, w *Timer, index int, when time.Duration, name string, fn func()) *Timer {
	if fn == nil {
		panic("simtime: RescheduleAs with nil callback")
	}
	if index+1 >= 1<<16 {
		panic("simtime: RescheduleAs index out of range")
	}
	if t == nil {
		t = &Timer{vq: v, pos: -1}
	}
	if when < v.now {
		when = v.now
	}
	t.when, t.name, t.fn = when, name, fn
	switch {
	case w.passed:
		t.seq, t.vkey, t.link = w.seq, w.vkey|uint32(index+1), nil
	case w.state == timerPending:
		// An event at the wake's slot could arm nothing earlier than the
		// wake; due no earlier, t settles before it can be dispatched.
		if when < w.when {
			t.when = w.when
		}
		t.seq, t.vkey, t.link = math.MaxUint64, uint32(index+1), w
		if w.link != t {
			w.link = t
		}
	default:
		panic("simtime: RescheduleAs as of a canceled wake")
	}
	if t.pos >= 0 {
		v.rearm(t)
	} else {
		t.state = timerPending
		v.enqueue(t)
	}
	return t
}

// pass moves the dispatch order past the wake w: w counts as passed,
// its seq becomes its base, and the timer armed as of it while it was
// pending takes its final key. Every seq handed out so far is below base, so
// the settled key keeps the timer's place among the queued real events; it
// is re-sifted to take its place ahead of the timers still armed as of
// pending wakes. The caller takes w off the pending wakes.
func (v *Virtual) pass(w *Timer) {
	w.passed = true
	if v.seq != v.passSeq {
		v.passSeq, v.passRank = v.seq, 0
	} else {
		v.passRank++
	}
	w.seq, w.vkey = v.seq, v.passRank<<16
	// A timer armed as of w later may land between the open batch and a
	// callback joining it from now on: close the batch to joins.
	if v.open != nil {
		v.open = nil
	}
	if b := w.link; b != nil {
		w.link = nil
		if b.link == w {
			b.seq, b.vkey, b.link = w.seq, b.vkey|w.vkey, nil
			// Its key only fell. Wheel buckets are unordered; in the heap it
			// may have to rise (unless it is the event being dispatched).
			if b.slot < 0 && b.pos >= 0 {
				v.siftUp(int(b.pos))
			}
		}
	}
}

// deadline clamps delay to now.
func (v *Virtual) deadline(delay time.Duration) time.Duration {
	now := v.now
	if delay > 0 {
		return now + delay
	}
	return now
}

// Dispatched reports how many events have run so far; a delivery batch
// counts once (see ScheduleJoin), a virtual wake never (see Reserve).
func (v *Virtual) Dispatched() uint64 {
	return v.dispatched
}

// Pending reports how many events are queued (reserved wakes are not
// events). Canceled events leave the queue at Cancel time, so every queued
// event is live.
func (v *Virtual) Pending() int {
	return len(v.queue) + v.wheelLen
}

// WheelLen reports how many events currently sit in the calendar wheel (for
// tests).
func (v *Virtual) WheelLen() int {
	return v.wheelLen
}

// FreeListLen reports the current Timer free-list size (for tests).
func (v *Virtual) FreeListLen() int {
	return len(v.free)
}

// Step runs the single next event, advancing time to its deadline. It
// reports false when the queue is empty.
func (v *Virtual) Step() bool {
	t := v.dequeueMin()
	if t == nil {
		return false
	}
	if v.wakeDue(t) {
		v.passWakes(t, 0)
	}
	if t.when > v.now {
		v.now = t.when
	}
	v.dispatched++
	if !t.pooled {
		// Cancel takes a timer off the queue, so a queued one is pending.
		t.state = timerFired
		t.fn()
		return true
	}
	t.fn()
	t.fn, t.name = nil, ""
	v.free = append(v.free, t)
	return true
}

// RunUntil executes events with deadlines <= until, then advances the clock
// to until. Events scheduled during execution are honored if they fall
// within the horizon.
func (v *Virtual) RunUntil(until time.Duration) {
	for {
		if t := v.peekMin(); t == nil || t.when > until {
			v.passWakes(nil, until)
			if v.now < until {
				v.now = until
			}
			return
		}
		v.Step()
	}
}

// RunFor executes events for the next d of virtual time.
func (v *Virtual) RunFor(d time.Duration) {
	v.RunUntil(v.Now() + d)
}

// Drain executes events until the queue is empty or maxEvents callbacks have
// run. It returns the number of callbacks executed. A maxEvents of zero
// means no limit; the limit exists so runaway self-rescheduling loops fail
// loudly in tests instead of hanging.
func (v *Virtual) Drain(maxEvents uint64) uint64 {
	var n uint64
	for {
		if maxEvents > 0 && n >= maxEvents {
			return n
		}
		if !v.Step() {
			return n
		}
		n++
	}
}

// MustDrain is Drain that panics if the event limit is hit, for tests.
func (v *Virtual) MustDrain(maxEvents uint64) uint64 {
	n := v.Drain(maxEvents)
	if maxEvents > 0 && n >= maxEvents {
		panic(fmt.Sprintf("simtime: Drain hit event limit %d at t=%v", maxEvents, v.Now()))
	}
	return n
}

// remove deletes a canceled timer from the queue (called from Timer.Cancel).
// Never called for pooled timers, which cannot be canceled.
func (v *Virtual) remove(t *Timer) {
	if t.pos >= 0 {
		v.unlink(t)
	}
}

// --- queue routing ---------------------------------------------------------
//
// An enqueued timer lives either in the calendar wheel (t.slot >= 0, t.pos
// its index within the unordered bucket) or in the heap (t.slot == -1, t.pos
// its heap index). t.slot is only meaningful while t.pos >= 0; removal from
// either structure resets pos to -1.

// wheelSlotFor reports the absolute wheel slot a deadline belongs to, or -1
// if it is beyond the wheel horizon (heap territory). All queued events
// satisfy when >= now, so the slot delta is never negative.
func (v *Virtual) wheelSlotFor(when time.Duration) int64 {
	s := int64(when) >> wheelSlotShift
	if s-(int64(v.now)>>wheelSlotShift) < wheelSlots {
		return s
	}
	return -1
}

// enqueue places t (when/seq already set) in the wheel or the heap.
func (v *Virtual) enqueue(t *Timer) {
	if s := v.wheelSlotFor(t.when); s >= 0 {
		v.wheelInsert(t, int(s&wheelMask))
		return
	}
	t.slot = -1
	v.heapPush(t)
}

// unlink removes a queued t from whichever structure holds it. t.pos >= 0.
func (v *Virtual) unlink(t *Timer) {
	if t.slot >= 0 {
		v.wheelRemove(t)
		return
	}
	v.heapDelete(int(t.pos))
}

// rearm repositions a queued t after its deadline changed (Reschedule
// in-place fast path). A wheel event staying in its slot costs nothing; slot
// hops and wheel↔heap migrations are O(1) plus at most one sift on the heap
// side. t.pos >= 0.
func (v *Virtual) rearm(t *Timer) {
	s := v.wheelSlotFor(t.when)
	if t.slot >= 0 {
		if s >= 0 {
			if slot := int32(s & wheelMask); slot != t.slot {
				v.wheelRemove(t)
				v.wheelInsert(t, int(slot))
			}
			// Same slot: buckets are unordered, nothing moves.
			return
		}
		v.wheelRemove(t)
		t.slot = -1
		v.heapPush(t)
		return
	}
	if s >= 0 {
		v.heapDelete(int(t.pos))
		v.wheelInsert(t, int(s&wheelMask))
		return
	}
	v.siftUp(int(t.pos))
	v.siftDown(int(t.pos))
}

// peekMin reports the next event to fire — the (when, seq) minimum
// across the wheel and the heap — without removing it, or nil when empty.
func (v *Virtual) peekMin() *Timer {
	t := v.wheelMin()
	if len(v.queue) > 0 {
		if h := v.queue[0]; t == nil || timerLess(h, t) {
			return h
		}
	}
	return t
}

// dequeueMin removes and returns the next event to fire, or nil when
// empty.
func (v *Virtual) dequeueMin() *Timer {
	t := v.wheelMin()
	if len(v.queue) > 0 {
		if h := v.queue[0]; t == nil || timerLess(h, t) {
			return v.heapPop()
		}
	}
	if t != nil {
		v.wheelRemove(t)
	}
	return t
}

// --- calendar wheel --------------------------------------------------------

// wheelInsert appends t to the bucket of absolute-slot index slot.
func (v *Virtual) wheelInsert(t *Timer, slot int) {
	t.slot = int32(slot)
	b := v.wheel[slot]
	t.pos = int32(len(b))
	v.wheel[slot] = append(b, t)
	v.wheelOcc[slot>>6] |= 1 << (slot & 63)
	v.wheelLen++
	if s := int64(t.when) >> wheelSlotShift; s < v.wheelHint {
		v.wheelHint = s
	}
}

// wheelRemove unlinks t from its bucket (swap-with-last; buckets are
// unordered).
func (v *Virtual) wheelRemove(t *Timer) {
	slot := int(t.slot)
	b := v.wheel[slot]
	last := len(b) - 1
	if i := int(t.pos); i != last {
		b[i] = b[last]
		b[i].pos = int32(i)
	}
	b[last] = nil
	v.wheel[slot] = b[:last]
	if last == 0 {
		v.wheelOcc[slot>>6] &^= 1 << (slot & 63)
	}
	v.wheelLen--
	t.pos = -1
}

// wheelMin reports the earliest (when, seq) event in the wheel, or nil
// when the wheel is empty: bitmap-scan buckets forward in time order from
// now's slot (the wrap covers the bits before the start slot, which map to
// the latest windows), then linear-scan the first occupied bucket — short by
// construction, it holds only near-simultaneous events.
func (v *Virtual) wheelMin() *Timer {
	if v.wheelLen == 0 {
		return nil
	}
	if cur := int64(v.now) >> wheelSlotShift; v.wheelHint < cur {
		v.wheelHint = cur
	}
	// Hinted probe: if the hinted bucket still holds events of the hinted
	// slot (not a later rotation), it is the earliest occupied slot.
	if b := v.wheel[v.wheelHint&wheelMask]; len(b) > 0 &&
		int64(b[0].when)>>wheelSlotShift == v.wheelHint {
		return bucketMin(b)
	}
	start := int(v.wheelHint & wheelMask)
	w, b := start>>6, start&63
	for i := 0; i <= wheelWords; i++ {
		wi := (w + i) & (wheelWords - 1)
		word := v.wheelOcc[wi]
		if i == 0 {
			word &= ^uint64(0) << b
		} else if i == wheelWords {
			word = v.wheelOcc[wi] & (1<<b - 1)
		}
		if word == 0 {
			continue
		}
		min := bucketMin(v.wheel[wi<<6+bits.TrailingZeros64(word)])
		v.wheelHint = int64(min.when) >> wheelSlotShift
		return min
	}
	return nil
}

// bucketMin scans an (unordered, short) bucket for its (when, seq) minimum.
func bucketMin(b []*Timer) *Timer {
	min := b[0]
	for _, t := range b[1:] {
		if timerLess(t, min) {
			min = t
		}
	}
	return min
}

// --- indexed 4-ary min-heap on (when, seq) --------------------------------
//
// A 4-ary layout halves the tree height of the binary heap and keeps the
// children of a node on one cache line of pointers; with the comparison
// inlined (no sort.Interface/heap.Interface dispatch) this is the cheapest
// structure for the far-deadline overflow behind the wheel.

const heapArity = 4

// timerLess orders by (when, seq). Only timers armed as of virtual wakes
// share a seq: those (vkey > 0) sort ahead of the real event holding their
// seq, and among themselves by wake rank and arming index. Timers armed as
// of still-pending wakes (seq MaxUint64) are never compared for dispatch
// before their wakes pass (see pass), so their order among themselves
// only has to be deterministic.
func timerLess(a, b *Timer) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.vkey-1 < b.vkey-1
}

// heapPush appends t and restores the heap property.
func (v *Virtual) heapPush(t *Timer) {
	t.pos = int32(len(v.queue))
	v.queue = append(v.queue, t)
	v.siftUp(int(t.pos))
}

// heapPop removes and returns the minimum.
func (v *Virtual) heapPop() *Timer {
	q := v.queue
	t := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[0].pos = 0
	q[last] = nil
	v.queue = q[:last]
	if last > 0 {
		v.siftDown(0)
	}
	t.pos = -1
	return t
}

// heapDelete removes the element at index i.
func (v *Virtual) heapDelete(i int) {
	q := v.queue
	last := len(q) - 1
	t := q[i]
	if i != last {
		q[i] = q[last]
		q[i].pos = int32(i)
	}
	q[last] = nil
	v.queue = q[:last]
	if i < last {
		// The swapped-in element may need to move either direction.
		v.siftDown(i)
		v.siftUp(int(v.queue[i].pos))
	}
	t.pos = -1
}

func (v *Virtual) siftUp(i int) {
	q := v.queue
	t := q[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		p := q[parent]
		if !timerLess(t, p) {
			break
		}
		q[i] = p
		p.pos = int32(i)
		i = parent
	}
	q[i] = t
	t.pos = int32(i)
}

func (v *Virtual) siftDown(i int) {
	q := v.queue
	n := len(q)
	t := q[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if timerLess(q[c], q[min]) {
				min = c
			}
		}
		if !timerLess(q[min], t) {
			break
		}
		q[i] = q[min]
		q[i].pos = int32(i)
		i = min
	}
	q[i] = t
	t.pos = int32(i)
}
