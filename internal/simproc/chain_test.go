package simproc

import (
	"testing"

	"freeride/internal/simtime"
)

// chainRig arms an inline process's wait slot and returns the process plus a
// recorder of continuation deliveries.
func chainRig(t *testing.T) (*simtime.Virtual, *Process, *[]any) {
	t.Helper()
	eng := simtime.NewVirtual()
	rt := NewRuntime(eng)
	var got []any
	p := rt.SpawnInline("chain", func(p *Process) {})
	eng.MustDrain(4)
	p.BeginWait(func(data any) { got = append(got, data) })
	p.EndWait("test")
	return eng, p, &got
}

// TestWakeChainedWithoutChainDisarms: a chained delivery whose continuation
// neither chains nor arms a new wait must leave the slot exactly as Wake
// would — disarmed, with later stray wakes discarded.
func TestWakeChainedWithoutChainDisarms(t *testing.T) {
	_, p, got := chainRig(t)
	p.WakeChained("first")
	if len(*got) != 1 || (*got)[0] != "first" {
		t.Fatalf("delivered %v, want [first]", *got)
	}
	p.Wake("stray")
	p.WakeChained("stray2")
	if len(*got) != 1 {
		t.Fatalf("stray wake delivered to a disarmed slot: %v", *got)
	}
}

// TestChainWaitReArmsInPlace: a continuation that chains keeps the slot
// armed for the next delivery, and ChainWait outside a chained delivery
// reports false.
func TestChainWaitReArmsInPlace(t *testing.T) {
	eng := simtime.NewVirtual()
	rt := NewRuntime(eng)
	var got []any
	p := rt.SpawnInline("chain", func(p *Process) {})
	eng.MustDrain(4)

	if p.ChainWait("outside", func(any) {}) {
		t.Fatal("ChainWait outside a chained delivery reported true")
	}

	gen0 := p.WaitGen()
	var loop func(any)
	n := 0
	loop = func(data any) {
		got = append(got, data)
		n++
		if n < 3 {
			if !p.ChainWait("loop", loop) {
				t.Fatal("ChainWait inside a chained delivery reported false")
			}
		}
	}
	p.BeginWait(loop)
	p.EndWait("loop")
	p.WakeChained(1)
	p.WakeChained(2)
	p.WakeChained(3)
	p.WakeChained(4) // loop stopped chaining after 3: discarded
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivered %v, want [1 2 3]", got)
	}
	if p.WaitGen() != gen0+3 {
		t.Fatalf("WaitGen advanced by %d, want 3 (one per arm)", p.WaitGen()-gen0)
	}
}

// TestWakeDuringChainedDeliveryDiscarded: while the chained continuation
// runs, the armed wait's wake has already been delivered — a concurrent
// stray Wake must be discarded, not double-delivered to the old
// continuation.
func TestWakeDuringChainedDeliveryDiscarded(t *testing.T) {
	_, p, _ := chainRig(t)
	var inner []any
	p.BeginWait(func(data any) {
		p.Wake("stray-during-delivery")
		p.WakeChained("stray-chained")
		inner = append(inner, data)
	})
	p.EndWait("x")
	p.WakeChained("real")
	if len(inner) != 1 || inner[0] != "real" {
		t.Fatalf("delivered %v, want [real]", inner)
	}
}

// TestChainSupersededByBeginWait: a continuation that arms a *different*
// wait (SleepThen shape) instead of chaining must keep that new wait armed —
// the chained delivery's epilogue must not disarm it.
func TestChainSupersededByBeginWait(t *testing.T) {
	eng, p, got := chainRig(t)
	p.BeginWait(func(data any) {
		p.SleepThen(0, func(any) { *got = append(*got, "slept") })
	})
	p.EndWait("x")
	p.WakeChained("kick")
	eng.MustDrain(4)
	if len(*got) != 1 || (*got)[0] != "slept" {
		t.Fatalf("delivered %v, want [slept] (epilogue disarmed the superseding wait?)", *got)
	}
}

// TestWakeChainedRespectsStop: SIGTSTP semantics are unchanged — a chained
// wake to a stopped process is held and re-delivered on SIGCONT, through the
// normal (unchained) path.
func TestWakeChainedRespectsStop(t *testing.T) {
	_, p, got := chainRig(t)
	p.Signal(SigStop)
	p.WakeChained("held")
	if len(*got) != 0 {
		t.Fatalf("stopped process received chained wake immediately: %v", *got)
	}
	p.Signal(SigCont)
	if len(*got) != 1 || (*got)[0] != "held" {
		t.Fatalf("delivered %v after SIGCONT, want [held]", *got)
	}
}

// TestWakeChainedToDeadProcessDiscarded: like Wake, chained wakes to
// terminated processes vanish.
func TestWakeChainedToDeadProcessDiscarded(t *testing.T) {
	_, p, got := chainRig(t)
	p.Exit(nil)
	p.WakeChained("late")
	if len(*got) != 0 {
		t.Fatalf("dead process received chained wake: %v", *got)
	}
}

// TestWakeChainedGoroutineProcess: on a goroutine process WakeChained is
// exactly Wake — the parked body resumes with the payload.
func TestWakeChainedGoroutineProcess(t *testing.T) {
	eng := simtime.NewVirtual()
	rt := NewRuntime(eng)
	var got any
	p := rt.Spawn("goro", func(p *Process) error {
		got = p.WaitEvent("wait", func(wake func(any)) {
			// Deliver later via the chained entry point.
			eng.ScheduleDetached(0, "kick", func() { p.WakeChained("resumed") })
		})
		return nil
	})
	eng.MustDrain(10)
	if got != "resumed" {
		t.Fatalf("goroutine process got %v, want resumed", got)
	}
	if p.State() != StateExited {
		t.Fatalf("state = %v, want exited", p.State())
	}
}

// TestChainReadyAndInPlace pins the predicate a wake source checks before
// doing a continuation's re-arm itself — true only for an armed inline wait
// whose chained delivery would run at once — and ChainInPlace's bookkeeping:
// the wait stays armed with its continuation, counts one more arm and parks
// on the new reason, as a ChainWait from the continuation would leave it.
func TestChainReadyAndInPlace(t *testing.T) {
	_, p, got := chainRig(t)
	if !p.ChainReady() {
		t.Fatal("an armed inline wait is not ChainReady")
	}
	gen := p.WaitGen()
	p.ChainInPlace("next")
	if p.WaitGen() != gen+1 || p.ParkReason() != "next" || !p.ChainReady() {
		t.Fatalf("after ChainInPlace: WaitGen %d (want %d), reason %q, ready %v", p.WaitGen(), gen+1, p.ParkReason(), p.ChainReady())
	}
	p.Wake("done")
	if len(*got) != 1 || (*got)[0] != "done" {
		t.Fatalf("delivered %v, want [done] to the kept continuation", *got)
	}
	if p.ChainReady() {
		t.Fatal("a disarmed wait is ChainReady")
	}

	_, p, _ = chainRig(t)
	p.Signal(SigStop)
	if p.ChainReady() {
		t.Fatal("a stopped process is ChainReady")
	}
	p.Signal(SigCont)
	if !p.ChainReady() {
		t.Fatal("a continued process is not ChainReady")
	}
	p.Signal(SigKill)
	if p.ChainReady() {
		t.Fatal("a killed process is ChainReady")
	}

	eng := simtime.NewVirtual()
	rt := NewRuntime(eng)
	var inside []bool
	q := rt.SpawnInline("chain", func(*Process) {})
	eng.MustDrain(4)
	q.BeginWait(func(any) { inside = append(inside, q.ChainReady()) })
	inside = append(inside, q.ChainReady()) // registration in flight
	q.EndWait("test")
	q.WakeChained(nil) // a chained delivery in flight
	if len(inside) != 2 || inside[0] || inside[1] {
		t.Fatalf("ChainReady during registration and during a chained delivery: %v, want [false false]", inside)
	}
}
