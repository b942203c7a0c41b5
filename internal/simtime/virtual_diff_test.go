package simtime

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// diffEngine wraps one Virtual plus the bookkeeping the differential driver
// needs to replay an identical workload on it.
type diffEngine struct {
	v      *Virtual
	order  []int
	timers map[int]*Timer
	// loops maps a handle id to its reusable Reschedule handle (exclusive
	// ownership, like the manager's deadline timers).
	loops map[int]*Timer
}

func newDiffEngine(escalated bool) *diffEngine {
	d := &diffEngine{v: NewVirtual(), timers: map[int]*Timer{}, loops: map[int]*Timer{}}
	if escalated {
		d.v.EscalateShared()
	}
	return d
}

// TestVirtualSingleOwnerVsEscalatedBitIdentical is the engine differential
// property test: identical randomized workloads — schedule, cancel,
// reschedule (both fresh and reusable-handle), detached events, steps — are
// replayed on a single-owner engine and an always-escalated engine, with the
// single-owner one escalating mid-run at a fuzzed point (the moment a
// simproc.Spawn would have). Dispatch order, timestamps and dispatched
// counts must be bit-identical: the ownership regime is a locking strategy,
// never a semantic.
func TestVirtualSingleOwnerVsEscalatedBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		engines := [2]*diffEngine{newDiffEngine(false), newDiffEngine(true)}
		escalateAt := rng.Intn(600) // fuzzed Spawn instant for the single-owner engine

		nextID := 0
		var liveIDs []int

		// Each op applies identically to both engines.
		schedule := func() {
			delay := time.Duration(rng.Intn(4)) * time.Millisecond
			id := nextID
			nextID++
			for _, d := range engines {
				d := d
				d.timers[id] = d.v.Schedule(delay, "diff", func() { d.order = append(d.order, id) })
			}
			liveIDs = append(liveIDs, id)
		}
		detached := func() {
			delay := time.Duration(rng.Intn(4)) * time.Millisecond
			id := nextID
			nextID++
			for _, d := range engines {
				d := d
				d.v.ScheduleDetached(delay, "diff-detached", func() { d.order = append(d.order, id) })
			}
		}
		cancel := func() {
			if len(liveIDs) == 0 {
				return
			}
			i := rng.Intn(len(liveIDs))
			id := liveIDs[i]
			liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
			won0 := engines[0].timers[id].Cancel()
			won1 := engines[1].timers[id].Cancel()
			if won0 != won1 {
				t.Fatalf("seed %d: Cancel(%d) diverged: %v vs %v", seed, id, won0, won1)
			}
		}
		rescheduleLive := func() {
			// Re-arm a still-live handle in place (the pending fast path).
			if len(liveIDs) == 0 {
				return
			}
			i := rng.Intn(len(liveIDs))
			old := liveIDs[i]
			liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
			delay := time.Duration(rng.Intn(4)) * time.Millisecond
			id := nextID
			nextID++
			for _, d := range engines {
				d := d
				d.timers[id] = d.v.Reschedule(d.timers[old], delay, "diff-rearm",
					func() { d.order = append(d.order, id) })
			}
			liveIDs = append(liveIDs, id)
		}
		rescheduleLoop := func() {
			// Reusable-handle loops (manager deadline / kernel completion
			// shape): the handle may be nil, fired, or still pending.
			slot := rng.Intn(4)
			delay := time.Duration(rng.Intn(4)) * time.Millisecond
			id := nextID
			nextID++
			for _, d := range engines {
				d := d
				d.loops[slot] = d.v.Reschedule(d.loops[slot], delay, "diff-loop",
					func() { d.order = append(d.order, id) })
			}
		}
		step := func() {
			s0 := engines[0].v.Step()
			s1 := engines[1].v.Step()
			if s0 != s1 {
				t.Fatalf("seed %d: Step diverged: %v vs %v", seed, s0, s1)
			}
			if n0, n1 := engines[0].v.Now(), engines[1].v.Now(); n0 != n1 {
				t.Fatalf("seed %d: clocks diverged: %v vs %v", seed, n0, n1)
			}
		}

		for op := 0; op < 600; op++ {
			if op == escalateAt {
				engines[0].v.EscalateShared()
			}
			switch r := rng.Intn(12); {
			case r < 4:
				schedule()
			case r < 6:
				detached()
			case r < 7:
				cancel()
			case r < 8:
				rescheduleLive()
			case r < 9:
				rescheduleLoop()
			default:
				step()
			}
		}
		for engines[0].v.Pending() > 0 || engines[1].v.Pending() > 0 {
			step()
		}

		if len(engines[0].order) != len(engines[1].order) {
			t.Fatalf("seed %d: fired %d vs %d events", seed, len(engines[0].order), len(engines[1].order))
		}
		for i := range engines[0].order {
			if engines[0].order[i] != engines[1].order[i] {
				t.Fatalf("seed %d: dispatch order diverges at %d: %d vs %d",
					seed, i, engines[0].order[i], engines[1].order[i])
			}
		}
		if d0, d1 := engines[0].v.Dispatched(), engines[1].v.Dispatched(); d0 != d1 {
			t.Fatalf("seed %d: dispatched counts diverged: %d vs %d", seed, d0, d1)
		}
		if !engines[0].v.Shared() {
			t.Fatalf("seed %d: engine did not escalate", seed)
		}
	}
}

// TestVirtualEscalatedConcurrentScheduling drives an escalated engine from
// racing producer goroutines while the owner drains — the goroutine-shell
// shape. Run under -race this asserts the escalated regime actually guards
// the queue; the count check asserts no event is lost.
func TestVirtualEscalatedConcurrentScheduling(t *testing.T) {
	v := NewVirtual()
	// Escalate exactly as a Spawn would: before the first extra goroutine.
	v.EscalateShared()

	const producers = 4
	const perProducer = 2000
	var fired sync.WaitGroup
	fired.Add(producers * perProducer)
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if i%3 == 0 {
					v.ScheduleDetached(time.Duration(i)*time.Microsecond, "prod", fired.Done)
				} else {
					tm := v.Schedule(time.Duration(i)*time.Microsecond, "prod", fired.Done)
					_ = tm.Pending()
				}
			}
		}(g)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		v.Step()
		select {
		case <-done:
			v.Drain(0)
			if v.Pending() != 0 {
				t.Fatalf("queue not drained: %d left", v.Pending())
			}
			fired.Wait()
			return
		default:
		}
	}
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
