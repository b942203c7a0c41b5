package simtime

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Operations of a wake script (see TestVirtualWakeOrder).
const (
	wkPlain = iota
	wkDetached
	wkJoin
	wkReschedule
	wkCancel
	wkWake
	wkCancelWake
	wkStep // top level only: one Step of the engine under test
)

// wakeOp is one scripted engine call. The schedule kinds fire event id, which
// then applies children. wkWake reserves wake id, followed by detached
// sentinels at the wake's instant and 1ns later (so events always follow the
// wake), and arms one timer per arms offset as of the wake, at its instant
// plus the offset, each firing its own id; early arms the first one while the
// wake is still pending, and the others are armed lazily, skip callbacks
// after the wake passes when every offset allows it. Reschedule and Cancel
// act on plain events, CancelWake on a wake (target: the wake's id).
type wakeOp struct {
	kind, id, target int
	sentinel         int // and sentinel+1
	delay            time.Duration
	arms             []time.Duration
	armIDs           []int
	early            bool
	skip             int
	children         []wakeOp
}

// wakeDelays collide constantly on a millisecond grid; 400ms is beyond the
// wheel horizon.
var wakeDelays = []time.Duration{0, 0, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 400 * time.Millisecond}

// armOffsets puts armed timers on the wake's instant, on the grid, and past
// the horizon.
var armOffsets = []time.Duration{0, 0, time.Millisecond, 2 * time.Millisecond, 400 * time.Millisecond}

var wakeKinds = []int{wkPlain, wkDetached, wkJoin, wkJoin, wkReschedule, wkCancel, wkWake, wkWake, wkWake, wkCancelWake, wkStep, wkStep, wkStep}

// genWakeOps draws n ops (children when depth > 0), numbering the callbacks
// they fire from *next and remembering plain events and wakes as targets.
func genWakeOps(rng *rand.Rand, n, depth int, next *int, plain, wakes *[]int) []wakeOp {
	ops := make([]wakeOp, 0, n)
	for i := 0; i < n; i++ {
		op := wakeOp{kind: wakeKinds[rng.Intn(len(wakeKinds))], delay: wakeDelays[rng.Intn(len(wakeDelays))]}
		if depth > 0 && op.kind == wkStep {
			op.kind = wkWake
		}
		switch op.kind {
		case wkReschedule, wkCancel:
			if len(*plain) == 0 {
				op.kind = wkJoin
			} else {
				op.target = (*plain)[rng.Intn(len(*plain))]
			}
		case wkCancelWake:
			if len(*wakes) == 0 {
				op.kind = wkWake
			} else {
				op.target = (*wakes)[rng.Intn(len(*wakes))]
			}
		}
		switch op.kind {
		case wkPlain, wkDetached, wkJoin, wkReschedule:
			op.id = *next
			*next++
			if op.kind == wkPlain {
				*plain = append(*plain, op.id)
			}
			if depth < 2 && rng.Intn(3) == 0 {
				op.children = genWakeOps(rng, 1+rng.Intn(3), depth+1, next, plain, wakes)
			}
		case wkWake:
			op.id = *next
			op.sentinel = *next + 1
			*next += 3
			*wakes = append(*wakes, op.id)
			op.skip = rng.Intn(4)
			for a := rng.Intn(4); a > 0; a-- {
				off := armOffsets[rng.Intn(len(armOffsets))]
				if off == 0 {
					op.skip = 0 // due at once: armed by the first callback after the wake
				}
				op.arms = append(op.arms, off)
				op.armIDs = append(op.armIDs, *next)
				*next++
			}
			op.early = len(op.arms) > 0 && rng.Intn(2) == 0
		}
		ops = append(ops, op)
	}
	return ops
}

// wakeRunner applies a wake script to one engine. With virtual false it is
// the reference: a wake is a real event that arms its timers when it runs,
// and a join is a plain ScheduleDetached. With virtual true wakes are
// reserved, their early arm is armed at once and the rest by a callback
// after the wake passes — the way a lazy component arms them: the first, or
// one of the next few at the wake's instant when no arm is due there.
type wakeRunner struct {
	v       *Virtual
	virtual bool
	order   []int          // ids of the callbacks run, in order
	handles map[int]*Timer // plain events by id
	wakes   map[int]*Timer // reserved wakes (reference: wake events) by id
	armed   map[int]*Timer // armed timers by id
	pending []*wakeOp      // virtual: wakes whose late arms are not armed yet
	joins   uint64
}

func newWakeRunner(virtual bool) *wakeRunner {
	return &wakeRunner{v: NewVirtual(), virtual: virtual, handles: map[int]*Timer{}, wakes: map[int]*Timer{}, armed: map[int]*Timer{}}
}

// callback wraps a scripted callback: on the engine under test it first arms
// whatever the wakes passed since the last callback owe.
func (r *wakeRunner) callback(id int, children []wakeOp) func() {
	return func() {
		r.settle()
		r.order = append(r.order, id)
		for _, c := range children {
			r.apply(c)
		}
	}
}

// arm arms arm j of wake op as of its wake.
func (r *wakeRunner) arm(op wakeOp, j int) {
	w := r.wakes[op.id]
	id := op.armIDs[j]
	r.armed[id] = r.v.RescheduleAs(r.armed[id], w, j, w.when+op.arms[j], "arm", r.callback(id, nil))
}

// settle arms the late arms of every passed wake (in any order: each
// arm's key is its wake's).
func (r *wakeRunner) settle() {
	if !r.virtual {
		return
	}
	var due []*wakeOp
	keep := r.pending[:0]
	for _, op := range r.pending {
		w := r.wakes[op.id]
		switch {
		case !w.Passed():
			keep = append(keep, op)
		case op.skip > 0 && r.v.Now() == w.when:
			op.skip--
			keep = append(keep, op)
		default:
			due = append(due, op)
		}
	}
	r.pending = keep
	for _, op := range due {
		for j := range op.arms {
			if j > 0 || !op.early {
				r.arm(*op, j)
			}
		}
	}
}

func (r *wakeRunner) apply(op wakeOp) {
	switch op.kind {
	case wkPlain:
		r.handles[op.id] = r.v.Schedule(op.delay, "plain", r.callback(op.id, op.children))
	case wkDetached:
		r.v.ScheduleDetached(op.delay, "detached", r.callback(op.id, op.children))
	case wkJoin:
		if !r.virtual {
			r.v.ScheduleDetached(op.delay, "join", r.callback(op.id, op.children))
		} else if r.v.ScheduleJoin(op.delay, "join", r.callback(op.id, op.children)) {
			r.joins++
		}
	case wkReschedule:
		if h := r.handles[op.target]; h != nil {
			r.handles[op.target] = r.v.Reschedule(h, op.delay, "moved", r.callback(op.id, op.children))
		}
	case wkCancel:
		r.handles[op.target].Cancel()
	case wkWake:
		if r.virtual {
			r.wakes[op.id] = r.v.Reserve(nil, op.delay)
			if op.early {
				r.arm(op, 0)
			}
			r.pending = append(r.pending, &op)
		} else {
			r.wakes[op.id] = r.v.Schedule(op.delay, "wake", func() {
				for j, off := range op.arms {
					id := op.armIDs[j]
					r.armed[id] = r.v.Schedule(off, "arm", r.callback(id, nil))
				}
			})
		}
		r.v.ScheduleDetached(op.delay, "sentinel", r.callback(op.sentinel, nil))
		r.v.ScheduleDetached(op.delay+1, "sentinel", r.callback(op.sentinel+1, nil))
	case wkCancelWake:
		w := r.wakes[op.target]
		if w == nil || !w.Cancel() || !r.virtual {
			return
		}
		for i, p := range r.pending {
			if p.id == op.target {
				if p.early {
					r.armed[p.armIDs[0]].Cancel()
				}
				r.pending = append(r.pending[:i], r.pending[i+1:]...)
				break
			}
		}
	}
}

// TestVirtualWakeOrder holds virtual wakes to their contract on random
// scripts of plain, detached and joinable schedules, reschedules, cancels,
// wakes and wake cancels at colliding instants, made at top level and from
// inside firing events, against a reference where every wake is a real event arming its timers: every
// callback — ordinary or armed as of a wake, early or late — runs in the
// reference's order at the reference's instant, a wake has passed exactly
// when the reference's wake event has run, and Dispatched counts the
// callbacks' events and never a wake.
func TestVirtualWakeOrder(t *testing.T) {
	var wakes, lateArms uint64
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var next int
		var plain, wakeIDs []int
		script := genWakeOps(rng, 200, 0, &next, &plain, &wakeIDs)
		got, want := newWakeRunner(true), newWakeRunner(false)
		check := func() {
			if got.v.Now() != want.v.Now() {
				t.Fatalf("seed %d: clock %v, reference %v", seed, got.v.Now(), want.v.Now())
			}
			for id, w := range got.wakes {
				if w.Passed() != want.wakes[id].Fired() {
					t.Fatalf("seed %d: wake %d passed = %v, reference wake event ran = %v", seed, id, w.Passed(), want.wakes[id].Fired())
				}
			}
		}
		step := func() bool {
			ok := got.v.Step()
			for len(want.order) < len(got.order) && want.v.Step() {
			}
			check()
			return ok
		}
		for _, op := range script {
			if op.kind == wkStep {
				step()
				continue
			}
			got.apply(op)
			want.apply(op)
		}
		for step() {
		}
		if want.v.Step() {
			t.Fatalf("seed %d: the reference has events left after the engine under test ran dry", seed)
		}
		if !slices.Equal(got.order, want.order) {
			t.Fatalf("seed %d: callback order diverges\ngot  %v\nwant %v", seed, got.order, want.order)
		}
		if g, w := got.v.Dispatched(), uint64(len(got.order))-got.joins; g != w {
			t.Fatalf("seed %d: %d events dispatched for %d callbacks and %d joins", seed, g, len(got.order), got.joins)
		}
		for _, w := range got.wakes {
			if w.Passed() {
				wakes++
			}
		}
		for _, op := range script {
			if op.kind == wkWake && len(op.arms) > 1 {
				lateArms++
			}
		}
	}
	if wakes < 1000 || lateArms < 300 {
		t.Fatalf("%d wakes passed, %d wakes with late arms: the scripts barely exercise wakes", wakes, lateArms)
	}
}
