package simtime

import (
	"math/rand"
	"testing"
	"time"
)

// wheelDelays spans every interesting region of the calendar wheel: inside
// the current slot, across slot boundaries, near the horizon edge, and far
// beyond it (heap territory), with repeats so equal-deadline FIFO ties occur
// in every region — including ties split across the two structures, which
// happen when an event scheduled beyond the horizon is later joined at the
// same deadline by a near-term one.
var wheelDelays = []time.Duration{
	0, 1, 100 * time.Nanosecond,
	500 * time.Microsecond, time.Millisecond, 1049 * time.Microsecond, // ~one slot (2^20ns)
	3 * time.Millisecond, 40 * time.Millisecond, 200 * time.Millisecond,
	260 * time.Millisecond, 268 * time.Millisecond, // horizon edge (256 slots)
	300 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second,
}

// TestVirtualWheelMatchesReferenceModel drives Virtual — wheel plus overflow
// heap — and the container/heap reference model through identical random
// interleavings of schedule, detached schedule, cancel, reschedule (of a live
// handle, and of a reusable handle that may be nil, fired or pending) and
// drain operations whose deadlines span the wheel horizon. Fire order (strict
// (when, seq), FIFO among equal deadlines, across both structures) and clock
// movement must match the pure heap exactly: the wheel is a placement
// strategy, never an ordering semantic.
func TestVirtualWheelMatchesReferenceModel(t *testing.T) {
	var rearms [3]int // nil, fired and pending loop handles re-armed
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := NewVirtual()
		ref := &refModel{}

		var gotOrder, wantOrder []int
		timers := map[int]*Timer{}
		events := map[int]*refEvent{}
		var liveIDs []int
		nextID := 0
		// loops and loopEvents are reusable Reschedule handles (the manager
		// deadline and kernel completion shape) and their reference events.
		var loops [4]*Timer
		var loopEvents [4]*refEvent

		record := func(id int) func() { return func() { gotOrder = append(gotOrder, id) } }

		schedule := func() {
			delay := wheelDelays[rng.Intn(len(wheelDelays))]
			id := nextID
			nextID++
			timers[id] = v.Schedule(delay, "wheel-prop", record(id))
			events[id] = ref.schedule(delay, id)
			liveIDs = append(liveIDs, id)
		}

		detached := func() {
			delay := wheelDelays[rng.Intn(len(wheelDelays))]
			id := nextID
			nextID++
			v.ScheduleDetached(delay, "wheel-detached", record(id))
			ref.schedule(delay, id)
		}

		cancel := func() {
			if len(liveIDs) == 0 {
				return
			}
			i := rng.Intn(len(liveIDs))
			id := liveIDs[i]
			liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
			if timers[id].Cancel() {
				events[id].canceled = true
			}
		}

		// Reschedule a still-live handle: semantically cancel+schedule
		// with a fresh seq, but exercising the in-place re-arm — same
		// slot, slot hop, wheel→heap and heap→wheel migrations.
		reschedule := func() {
			if len(liveIDs) == 0 {
				return
			}
			i := rng.Intn(len(liveIDs))
			old := liveIDs[i]
			liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
			delay := wheelDelays[rng.Intn(len(wheelDelays))]
			id := nextID
			nextID++
			timers[id] = v.Reschedule(timers[old], delay, "wheel-rearm", record(id))
			events[old].canceled = true
			events[id] = ref.schedule(delay, id)
			liveIDs = append(liveIDs, id)
		}

		// Re-arm a reusable handle whatever its state: a nil handle is a
		// fresh Schedule, a fired one is re-pushed, a pending one moves.
		rescheduleLoop := func() {
			slot := rng.Intn(len(loops))
			delay := wheelDelays[rng.Intn(len(wheelDelays))]
			id := nextID
			nextID++
			old := loops[slot]
			switch {
			case old == nil:
				rearms[0]++
			case old.Fired():
				rearms[1]++
			default:
				rearms[2]++
			}
			loops[slot] = v.Reschedule(old, delay, "wheel-loop", record(id))
			if old != nil && loops[slot] != old {
				t.Fatalf("seed %d: Reschedule dropped its reusable handle", seed)
			}
			if e := loopEvents[slot]; e != nil {
				e.canceled = true
			}
			loopEvents[slot] = ref.schedule(delay, id)
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

		for op := 0; op < 500; op++ {
			switch r := rng.Intn(12); {
			case r < 3:
				schedule()
			case r < 5:
				detached()
			case r < 6:
				cancel()
			case r < 7:
				reschedule()
			case r < 8:
				rescheduleLoop()
			default:
				stepBoth()
			}
		}
		for ref.queue.Len() > 0 || v.Pending() > 0 {
			stepBoth()
		}

		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: fire order diverges at %d: got %d want %d", seed, i, gotOrder[i], wantOrder[i])
			}
		}
		if got, want := v.Dispatched(), uint64(len(wantOrder)); got != want {
			t.Fatalf("seed %d: dispatched %d events, reference fired %d", seed, got, want)
		}
	}
	if rearms[0] == 0 || rearms[1] < 100 || rearms[2] < 100 {
		t.Fatalf("re-armed %d nil, %d fired and %d pending loop handles: the scripts barely exercise reuse", rearms[0], rearms[1], rearms[2])
	}
	t.Logf("re-armed %d nil, %d fired and %d pending loop handles", rearms[0], rearms[1], rearms[2])
}

// TestVirtualWheelPlacementAndMigration pins the routing policy white-box:
// near-term events go to the wheel, far events to the heap, and Reschedule
// migrates a pending timer between the two as its deadline crosses the
// horizon — preserving the cancel+schedule fire order.
func TestVirtualWheelPlacementAndMigration(t *testing.T) {
	v := NewVirtual()
	var order []string
	near := v.Schedule(time.Millisecond, "near", func() { order = append(order, "near") })
	far := v.Schedule(time.Second, "far", func() { order = append(order, "far") })
	if v.WheelLen() != 1 {
		t.Fatalf("WheelLen = %d after one near + one far event, want 1", v.WheelLen())
	}

	// Heap → wheel: pull the far event inside the horizon, ahead of near.
	far = v.Reschedule(far, 100*time.Microsecond, "far-near", func() { order = append(order, "far-near") })
	if v.WheelLen() != 2 {
		t.Fatalf("WheelLen = %d after heap→wheel migration, want 2", v.WheelLen())
	}
	// Wheel → heap: push the near event beyond the horizon.
	near = v.Reschedule(near, 400*time.Millisecond, "near-far", func() { order = append(order, "near-far") })
	if v.WheelLen() != 1 {
		t.Fatalf("WheelLen = %d after wheel→heap migration, want 1", v.WheelLen())
	}
	v.MustDrain(10)
	if len(order) != 2 || order[0] != "far-near" || order[1] != "near-far" {
		t.Fatalf("order = %v, want [far-near near-far]", order)
	}
	if v.Now() != 400*time.Millisecond {
		t.Fatalf("clock = %v, want 400ms", v.Now())
	}

	// Same-slot re-arm keeps cancel+schedule FIFO: a re-armed event goes
	// behind an equal-deadline sibling even though nothing moved in the
	// bucket.
	order = order[:0]
	a := v.Schedule(time.Millisecond, "a", func() { order = append(order, "a") })
	v.Schedule(time.Millisecond, "b", func() { order = append(order, "b") })
	v.Reschedule(a, time.Millisecond, "a2", func() { order = append(order, "a2") })
	v.MustDrain(10)
	if len(order) != 2 || order[0] != "b" || order[1] != "a2" {
		t.Fatalf("order = %v, want [b a2]", order)
	}
}

// TestVirtualWheelRearmAllocFree pins the satellite guarantee: re-arming a
// pending timer within the wheel — the kernel-completion shape, both the
// same-slot rewrite and a neighbor-slot hop — allocates nothing once bucket
// capacity is warm.
func TestVirtualWheelRearmAllocFree(t *testing.T) {
	v := NewVirtual()
	tm := v.Schedule(50*time.Millisecond, "pin", func() {})
	fn := func() {}
	// Warm both destination buckets' capacity.
	tm = v.Reschedule(tm, 40*time.Millisecond, "pin", fn)
	tm = v.Reschedule(tm, 50*time.Millisecond, "pin", fn)
	allocs := testing.AllocsPerRun(1000, func() {
		tm = v.Reschedule(tm, 40*time.Millisecond, "pin", fn)                 // slot hop
		tm = v.Reschedule(tm, 40*time.Millisecond+time.Nanosecond, "pin", fn) // same slot
		tm = v.Reschedule(tm, 50*time.Millisecond, "pin", fn)
	})
	if allocs != 0 {
		t.Fatalf("wheel re-arm allocates %.2f objects/op, want 0", allocs)
	}
	if v.WheelLen() != 1 || v.Pending() != 1 {
		t.Fatalf("wheel=%d pending=%d after re-arms, want 1/1", v.WheelLen(), v.Pending())
	}
}

// TestWheelBucketsShareOneSlab pins the construction-time sizing: filling
// every bucket of a fresh engine up to wheelBucketCap allocates the engine,
// the slab and the timers — no bucket grows on its own — and one event more
// per bucket still dispatches in (when, seq) order without touching the
// neighbouring bucket's window.
func TestWheelBucketsShareOneSlab(t *testing.T) {
	fn := func() {}
	fill := func(v *Virtual, perSlot int) {
		for slot := 0; slot < wheelSlots; slot++ {
			for k := 0; k < perSlot; k++ {
				v.Schedule(time.Duration(slot)<<wheelSlotShift, "slab", fn)
			}
		}
	}
	const timers = wheelSlots * wheelBucketCap
	allocs := testing.AllocsPerRun(10, func() { fill(NewVirtual(), wheelBucketCap) })
	if want := float64(2 + timers); allocs != want {
		t.Fatalf("filling every bucket to cap allocates %.0f objects, want %.0f (engine + slab + %d timers)", allocs, want, timers)
	}

	v := NewVirtual()
	fill(v, wheelBucketCap+1)
	var last time.Duration
	for v.Step() {
		if v.Now() < last {
			t.Fatalf("clock moved backwards: %v after %v", v.Now(), last)
		}
		last = v.Now()
	}
	if got, want := v.Dispatched(), uint64(wheelSlots*(wheelBucketCap+1)); got != want {
		t.Fatalf("dispatched %d events, want %d (an overflowing bucket lost or clobbered entries)", got, want)
	}
}
