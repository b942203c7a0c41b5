package simtime

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refEvent / refQueue form the reference model: the straightforward
// container/heap min-heap on (when, seq) that the indexed 4-ary queue
// replaced. The property tests drive both implementations through random
// schedule/cancel/drain interleavings and require identical fire orders.
type refEvent struct {
	when     time.Duration
	seq      uint64
	id       int
	canceled bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any          { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }
func (q *refQueue) popMin() *refEvent { return heap.Pop(q).(*refEvent) }

// refModel mirrors the virtual engine's externally visible behavior.
type refModel struct {
	now   time.Duration
	seq   uint64
	queue refQueue
}

func (m *refModel) schedule(delay time.Duration, id int) *refEvent {
	when := m.now
	if delay > 0 {
		when += delay
	}
	e := &refEvent{when: when, seq: m.seq, id: id}
	m.seq++
	heap.Push(&m.queue, e)
	return e
}

// step fires the next live event, returning its id, or -1 if none.
func (m *refModel) step() int {
	for m.queue.Len() > 0 {
		e := m.queue.popMin()
		if e.canceled {
			continue
		}
		if e.when > m.now {
			m.now = e.when
		}
		return e.id
	}
	return -1
}

// TestVirtualMatchesReferenceModel drives Virtual and the reference heap
// through identical random interleavings of schedule, cancel and drain
// operations, checking that fire order (including the FIFO tie-break for
// equal deadlines) and clock movement match exactly.
func TestVirtualMatchesReferenceModel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := NewVirtual()
		ref := &refModel{}

		var gotOrder, wantOrder []int
		timers := map[int]*Timer{} // live Virtual handles by event id
		events := map[int]*refEvent{}
		var liveIDs []int
		nextID := 0

		schedule := func() {
			// A few distinct delays force deadline collisions so the
			// FIFO tie-break is exercised constantly.
			delay := time.Duration(rng.Intn(4)) * time.Millisecond
			id := nextID
			nextID++
			gotID := id
			timers[id] = v.Schedule(delay, "prop", func() { gotOrder = append(gotOrder, gotID) })
			events[id] = ref.schedule(delay, id)
			liveIDs = append(liveIDs, id)
		}

		cancel := func() {
			if len(liveIDs) == 0 {
				return
			}
			i := rng.Intn(len(liveIDs))
			id := liveIDs[i]
			liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
			tm, e := timers[id], events[id]
			won := tm.Cancel()
			if won {
				e.canceled = true
			}
			// Cancel must agree with the model about whether the event
			// already fired.
			fired := false
			for _, g := range gotOrder {
				if g == id {
					fired = true
				}
			}
			if won == fired {
				t.Fatalf("seed %d: Cancel(%d) = %v but fired = %v", seed, id, won, fired)
			}
		}

		stepBoth := func() {
			want := ref.step()
			stepped := v.Step()
			if (want >= 0) != stepped {
				t.Fatalf("seed %d: Step() = %v, reference id %d", seed, stepped, want)
			}
			if want >= 0 {
				wantOrder = append(wantOrder, want)
				for i, id := range liveIDs {
					if id == want {
						liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
						break
					}
				}
			}
			if v.Now() != ref.now {
				t.Fatalf("seed %d: clock %v != reference %v", seed, v.Now(), ref.now)
			}
		}

		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				schedule()
			case r < 7:
				cancel()
			default:
				stepBoth()
			}
		}
		// Drain both to the end.
		for ref.queue.Len() > 0 || v.Pending() > 0 {
			stepBoth()
		}

		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: fire order diverges at %d: got %d want %d\ngot  %v\nwant %v",
					seed, i, gotOrder[i], wantOrder[i], gotOrder, wantOrder)
			}
		}
	}
}

// TestVirtualDetachedInterleavesWithScheduled checks that pooled detached
// events and handle-returning events share one FIFO order for equal
// deadlines, and that the free-list actually recycles.
func TestVirtualDetachedInterleavesWithScheduled(t *testing.T) {
	v := NewVirtual()
	var order []int
	for i := 0; i < 10; i++ {
		id := i
		if i%2 == 0 {
			v.ScheduleDetached(time.Second, "even", func() { order = append(order, id) })
		} else {
			v.Schedule(time.Second, "odd", func() { order = append(order, id) })
		}
	}
	v.MustDrain(100)
	for i, id := range order {
		if id != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break broken)", i, id, i)
		}
	}

	// Steady-state detached scheduling must reuse timers, not allocate:
	// the free-list may hold the burst high-water mark (5 concurrent
	// events above) but must not grow with 1000 sequential events.
	high := v.FreeListLen()
	for i := 0; i < 1000; i++ {
		v.ScheduleDetached(time.Millisecond, "d", func() {})
		v.MustDrain(10)
	}
	if n := v.FreeListLen(); n > high+1 {
		t.Fatalf("free list grew from %d to %d; timers are not being recycled", high, n)
	}
}

// TestVirtualCancelHeavyStress floods the queue, cancels a large random
// subset from a racing goroutine, and verifies only never-canceled events
// fire and the queue empties.
func TestVirtualCancelHeavyStress(t *testing.T) {
	v := NewVirtual()
	const n = 20000
	rng := rand.New(rand.NewSource(7))

	fired := make([]bool, n)
	timers := make([]*Timer, n)
	for i := 0; i < n; i++ {
		id := i
		timers[i] = v.Schedule(time.Duration(rng.Intn(50))*time.Millisecond, "stress",
			func() { fired[id] = true })
	}
	canceled := make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Intn(100) < 60 {
			canceled[i] = timers[i].Cancel()
		}
	}
	// Eager removal: every successful cancel left the queue immediately.
	live := 0
	for i := range canceled {
		if !canceled[i] {
			live++
		}
	}
	if v.Pending() != live {
		t.Fatalf("Pending() = %d after cancels, want %d (no eager removal?)", v.Pending(), live)
	}
	v.MustDrain(n + 1)
	for i := 0; i < n; i++ {
		if canceled[i] && fired[i] {
			t.Fatalf("event %d fired after successful cancel", i)
		}
		if !canceled[i] && !fired[i] {
			t.Fatalf("event %d never fired and was not canceled", i)
		}
	}
	if v.Pending() != 0 {
		t.Fatalf("queue not empty after drain: %d", v.Pending())
	}
}

// TestVirtualReschedule exercises the timer-reuse path: a self-rescheduling
// loop must keep its Timer identity, and rescheduling a pending timer must
// replace (not duplicate) the event.
func TestVirtualReschedule(t *testing.T) {
	v := NewVirtual()
	var fires int
	var tm *Timer
	var loop func()
	loop = func() {
		fires++
		if fires < 5 {
			tm = v.Reschedule(tm, time.Second, "loop", loop)
		}
	}
	tm = v.Schedule(time.Second, "loop", loop)
	first := tm
	v.MustDrain(100)
	if fires != 5 {
		t.Fatalf("fires = %d, want 5", fires)
	}
	if tm != first {
		t.Fatalf("Reschedule allocated a new timer")
	}
	if v.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", v.Now())
	}

	// Rescheduling a still-pending timer moves it instead of duplicating.
	count := 0
	tm2 := v.Schedule(time.Second, "pending", func() { count++ })
	tm2 = v.Reschedule(tm2, 3*time.Second, "moved", func() { count += 10 })
	v.MustDrain(10)
	if count != 10 {
		t.Fatalf("count = %d, want 10 (old event must not fire)", count)
	}
	if got := v.Now(); got != 5*time.Second+3*time.Second {
		t.Fatalf("clock = %v, want 8s", got)
	}
}

// Operations of a join script (see TestScheduleJoinKeepsDetachedOrder).
const (
	opPlain = iota
	opDetached
	opJoin
	opReschedule
	opCancel
	opStep // top level only: one Step of the joining engine
)

// joinOp is one scripted engine call. The schedule kinds fire event id,
// which then applies children — so joins are also issued from inside firing
// events and batches. Reschedule and Cancel act on the handle of the plain
// event target, when it has been scheduled.
type joinOp struct {
	kind, id, target int
	delay            time.Duration
	children         []joinOp
}

// joinDelays collide constantly on a millisecond grid; 400ms is beyond the
// wheel horizon, where a join gets its own event.
var joinDelays = []time.Duration{0, 0, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 400 * time.Millisecond}

// joinKinds weights the draw towards joins, with a step every few calls.
var joinKinds = []int{opPlain, opDetached, opJoin, opJoin, opJoin, opJoin, opReschedule, opCancel, opStep, opStep}

// genJoinOps draws n ops (children when depth > 0), numbering the events
// they fire from *next and remembering plain ones as later targets.
func genJoinOps(rng *rand.Rand, n, depth int, next *int, plain *[]int) []joinOp {
	ops := make([]joinOp, 0, n)
	for i := 0; i < n; i++ {
		op := joinOp{kind: joinKinds[rng.Intn(len(joinKinds))], delay: joinDelays[rng.Intn(len(joinDelays))]}
		if depth > 0 && op.kind == opStep {
			op.kind = opJoin
		}
		switch op.kind {
		case opReschedule, opCancel:
			if len(*plain) == 0 {
				op.kind = opJoin
			} else {
				op.target = (*plain)[rng.Intn(len(*plain))]
			}
		}
		switch op.kind {
		case opPlain, opDetached, opJoin, opReschedule:
			op.id = *next
			*next++
			if op.kind == opPlain {
				*plain = append(*plain, op.id)
			}
			if depth < 2 && rng.Intn(3) == 0 {
				op.children = genJoinOps(rng, 1+rng.Intn(3), depth+1, next, plain)
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// joinRunner applies a join script to one engine. With join false every
// opJoin is a plain ScheduleDetached: the reference.
type joinRunner struct {
	v       *Virtual
	join    bool
	order   []int
	handles map[int]*Timer
	joins   uint64
}

func (r *joinRunner) apply(op joinOp) {
	fire := func() {
		r.order = append(r.order, op.id)
		for _, c := range op.children {
			r.apply(c)
		}
	}
	switch op.kind {
	case opPlain:
		r.handles[op.id] = r.v.Schedule(op.delay, "plain", fire)
	case opDetached:
		r.v.ScheduleDetached(op.delay, "detached", fire)
	case opJoin:
		if !r.join {
			r.v.ScheduleDetached(op.delay, "join", fire)
		} else if r.v.ScheduleJoin(op.delay, "join", fire) {
			r.joins++
		}
	case opReschedule:
		if h := r.handles[op.target]; h != nil {
			r.handles[op.target] = r.v.Reschedule(h, op.delay, "moved", fire)
		}
	case opCancel:
		r.handles[op.target].Cancel()
	}
}

// TestScheduleJoinKeepsDetachedOrder holds delivery batches to their
// contract on random scripts mixing plain, detached and joinable schedules
// at colliding instants — with reschedules and cancels onto and off a
// batch's instant between joins, joins beyond the wheel horizon and joins
// from inside firing events and batches: every callback runs in the order it runs when each join is a
// plain ScheduleDetached, and the engine dispatches one event fewer per
// join. After each Step of the joining engine (which may run a whole batch)
// the reference steps until it has run as many callbacks, so the top-level
// calls between steps land at the same point of both runs.
func TestScheduleJoinKeepsDetachedOrder(t *testing.T) {
	var joins, events uint64
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var next int
		var plain []int
		script := genJoinOps(rng, 300, 0, &next, &plain)
		got := &joinRunner{v: NewVirtual(), join: true, handles: map[int]*Timer{}}
		want := &joinRunner{v: NewVirtual(), handles: map[int]*Timer{}}
		step := func() bool {
			ok := got.v.Step()
			for len(want.order) < len(got.order) && want.v.Step() {
			}
			if got.v.Now() != want.v.Now() {
				t.Fatalf("seed %d: clock %v, reference %v", seed, got.v.Now(), want.v.Now())
			}
			return ok
		}
		for _, op := range script {
			if op.kind == opStep {
				step()
				continue
			}
			got.apply(op)
			want.apply(op)
		}
		for step() {
		}
		if want.v.Step() {
			t.Fatalf("seed %d: the reference has events left after the joining engine ran dry", seed)
		}
		if !slices.Equal(got.order, want.order) {
			t.Fatalf("seed %d: fire order diverges\ngot  %v\nwant %v", seed, got.order, want.order)
		}
		if g, w := got.v.Dispatched(), want.v.Dispatched(); g != w-got.joins {
			t.Fatalf("seed %d: %d events dispatched, want the reference's %d minus %d joins", seed, g, w, got.joins)
		}
		joins += got.joins
		events += want.v.Dispatched()
	}
	if joins < events/10 {
		t.Fatalf("%d joins in %d events: the scripts barely exercise batching", joins, events)
	}
	t.Logf("%d of %d callbacks joined a batch", joins, events)
}
