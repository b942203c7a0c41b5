package simproc

import (
	"testing"
	"time"

	"freeride/internal/simtime"
)

// Allocation pins for the process runtime's hot paths, in the style of the
// engine's 0-allocs/op test: once warmed up, a goroutine process's
// sleep→park→wake→resume cycle, the WaitEvent slot path, and an inline
// process's continuation cycle must not allocate.

// TestParkResumeAllocFree pins the coroutine round trip: each engine step
// fires one sleep wake, switches into the body and back at its next park,
// and re-schedules the next sleep.
func TestParkResumeAllocFree(t *testing.T) {
	eng := simtime.NewVirtual()
	rt := NewRuntime(eng)
	rt.Spawn("sleeper", func(p *Process) error {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	// Warm up: spawn event, first parks, timer free-list.
	for i := 0; i < 16; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("park/resume cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWaitEventAllocFree pins the reusable wait slot: arming, registering a
// detached wake and delivering it must not allocate (the setup closure stays
// on the stack because WaitEvent never retains it).
func TestWaitEventAllocFree(t *testing.T) {
	eng := simtime.NewVirtual()
	rt := NewRuntime(eng)
	rt.Spawn("waiter", func(p *Process) error {
		for {
			got := p.WaitEvent("ext", func(wake func(any)) {
				eng.ScheduleDetached(time.Microsecond, "fire", func() { wake(nil) })
			})
			if got != nil {
				return nil
			}
		}
	})
	for i := 0; i < 16; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		eng.Step()
	})
	if allocs > 1 {
		// The wake-scheduling closure inside setup may cost one cell
		// depending on inlining; the wait slot itself must add nothing.
		t.Fatalf("WaitEvent cycle allocates %.1f objects/op, want <= 1", allocs)
	}
}

// TestInlineSleepAllocFree pins the event-loop runtime: a continuation
// process's sleep→wake→continue cycle is entirely allocation-free.
func TestInlineSleepAllocFree(t *testing.T) {
	eng := simtime.NewVirtual()
	rt := NewRuntime(eng)
	rt.SpawnInline("ticker", func(p *Process) {
		var k func(any)
		k = func(any) {
			p.SleepThen(time.Microsecond, k)
		}
		p.SleepThen(time.Microsecond, k)
	})
	for i := 0; i < 16; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("inline sleep cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMailboxWakePathAllocFree pins the synchronization primitives'
// wake paths: an inline sender/receiver pair ping-ponging through a Mailbox
// allocates nothing per message beyond the boxed payload it sends.
func TestMailboxWakePathAllocFree(t *testing.T) {
	eng := simtime.NewVirtual()
	rt := NewRuntime(eng)
	mb := NewMailbox[any]()
	msg := any("ping") // pre-boxed: pin the wake path, not the payload
	rt.SpawnInline("rx", func(p *Process) {
		var k func(any)
		k = func(any) {
			mb.TryRecv()
			mb.RecvThen(p, k)
		}
		mb.RecvThen(p, k)
	})
	var send func()
	send = func() {
		mb.Send(msg)
		eng.ScheduleDetached(time.Microsecond, "send", send)
	}
	eng.ScheduleDetached(time.Microsecond, "send", send)
	for i := 0; i < 16; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("mailbox wake path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMailboxQueueAllocFree pins the queued path (no receiver parked): two
// messages in, two out, forever. A struct message is not boxed and the queue
// reuses its storage (popping by re-slicing shed capacity until the next
// send regrew it); fifo's own test checks that consumed slots are zeroed.
func TestMailboxQueueAllocFree(t *testing.T) {
	type letter struct {
		n   int
		ref *int
	}
	mb := NewMailbox[letter]()
	msg := letter{n: 7, ref: new(int)}
	cycle := func() {
		mb.Send(msg)
		mb.Send(msg)
		for i := 0; i < 2; i++ {
			if got, ok := mb.TryRecv(); !ok || got != msg {
				t.Fatalf("TryRecv = %v, %v", got, ok)
			}
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(2000, cycle); allocs != 0 {
		t.Fatalf("mailbox send/receive cycle allocates %.1f objects/op, want 0", allocs)
	}
	// A queue that never drains reuses its storage too: one message always
	// stays behind.
	mb.Send(msg)
	step := func() {
		mb.Send(msg)
		mb.TryRecv()
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Fatalf("mailbox with a standing backlog allocates %.1f objects/op, want 0", allocs)
	}
}
