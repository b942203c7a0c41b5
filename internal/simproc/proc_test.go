package simproc

import (
	"errors"
	"slices"
	"testing"
	"time"

	"freeride/internal/simtime"
)

func newRT() (*simtime.Virtual, *Runtime) {
	eng := simtime.NewVirtual()
	return eng, NewRuntime(eng)
}

func TestProcessRunsAndExits(t *testing.T) {
	eng, rt := newRT()
	ran := false
	p := rt.Spawn("hello", func(p *Process) error {
		ran = true
		return nil
	})
	eng.MustDrain(100)
	if !ran {
		t.Fatal("body did not run")
	}
	if p.State() != StateExited {
		t.Fatalf("state = %v, want exited", p.State())
	}
	if p.ExitErr() != nil {
		t.Fatalf("exit err = %v, want nil", p.ExitErr())
	}
}

func TestProcessSleepAdvancesVirtualTime(t *testing.T) {
	eng, rt := newRT()
	var woke time.Duration
	rt.Spawn("sleeper", func(p *Process) error {
		p.Sleep(3 * time.Second)
		woke = p.Now()
		return nil
	})
	eng.MustDrain(100)
	if woke != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", woke)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	eng, rt := newRT()
	var order []string
	mk := func(name string, period time.Duration) {
		rt.Spawn(name, func(p *Process) error {
			for i := 0; i < 3; i++ {
				p.Sleep(period)
				order = append(order, name)
			}
			return nil
		})
	}
	mk("a", 100*time.Millisecond)
	mk("b", 150*time.Millisecond)
	eng.MustDrain(1000)
	// Wake times: a at 100/200/300ms, b at 150/300/450ms. At the t=300ms
	// tie, b's timer was scheduled earlier (at t=150ms) so FIFO runs b
	// first.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcessBodyError(t *testing.T) {
	eng, rt := newRT()
	boom := errors.New("boom")
	p := rt.Spawn("failing", func(p *Process) error { return boom })
	eng.MustDrain(100)
	if !errors.Is(p.ExitErr(), boom) {
		t.Fatalf("exit err = %v, want boom", p.ExitErr())
	}
	if p.State() != StateExited {
		t.Fatalf("state = %v, want exited", p.State())
	}
}

func TestProcessPanicBecomesError(t *testing.T) {
	eng, rt := newRT()
	p := rt.Spawn("panicky", func(p *Process) error { panic("ouch") })
	eng.MustDrain(100)
	if p.ExitErr() == nil {
		t.Fatal("exit err = nil, want panic error")
	}
}

func TestKillParkedProcess(t *testing.T) {
	eng, rt := newRT()
	deferRan := false
	p := rt.Spawn("victim", func(p *Process) error {
		defer func() { deferRan = true }()
		p.Sleep(time.Hour)
		return nil
	})
	eng.Schedule(time.Second, "kill", func() { p.Signal(SigKill) })
	eng.MustDrain(100)
	if p.State() != StateKilled {
		t.Fatalf("state = %v, want killed", p.State())
	}
	if !errors.Is(p.ExitErr(), ErrKilled) {
		t.Fatalf("exit err = %v, want ErrKilled", p.ExitErr())
	}
	if !deferRan {
		t.Fatal("defers did not run on kill")
	}
	if eng.Now() != time.Hour {
		// The sleep timer still fires (harmlessly) at +1h.
		t.Fatalf("Now = %v, want 1h (sleep timer drains harmlessly)", eng.Now())
	}
}

func TestKillIsImmediateNotAtSleepEnd(t *testing.T) {
	eng, rt := newRT()
	var exitedAt time.Duration
	p := rt.Spawn("victim", func(p *Process) error {
		p.Sleep(time.Hour)
		return nil
	})
	p.OnExit(func(err error) { exitedAt = eng.Now() })
	eng.Schedule(time.Second, "kill", func() { p.Signal(SigKill) })
	eng.RunUntil(2 * time.Second)
	if p.Alive() {
		t.Fatal("process still alive 1s after kill")
	}
	if exitedAt != time.Second {
		t.Fatalf("exited at %v, want 1s", exitedAt)
	}
}

func TestStopDefersWake(t *testing.T) {
	eng, rt := newRT()
	var wokeAt time.Duration
	p := rt.Spawn("stoppable", func(p *Process) error {
		p.Sleep(time.Second) // due at t=1s
		wokeAt = p.Now()
		return nil
	})
	eng.Schedule(500*time.Millisecond, "stop", func() { p.Signal(SigStop) })
	eng.Schedule(5*time.Second, "cont", func() { p.Signal(SigCont) })
	eng.MustDrain(100)
	if wokeAt != 5*time.Second {
		t.Fatalf("woke at %v, want 5s (wake deferred until SIGCONT)", wokeAt)
	}
	if p.State() != StateExited {
		t.Fatalf("state = %v, want exited", p.State())
	}
}

func TestStopThenKillStillDies(t *testing.T) {
	eng, rt := newRT()
	p := rt.Spawn("stoppable", func(p *Process) error {
		p.Sleep(time.Hour)
		return nil
	})
	eng.Schedule(time.Second, "stop", func() { p.Signal(SigStop) })
	eng.Schedule(2*time.Second, "kill", func() { p.Signal(SigKill) })
	eng.RunUntil(3 * time.Second)
	if p.State() != StateKilled {
		t.Fatalf("state = %v, want killed", p.State())
	}
}

func TestContWithoutStopIsNoop(t *testing.T) {
	eng, rt := newRT()
	p := rt.Spawn("x", func(p *Process) error {
		p.Sleep(time.Second)
		return nil
	})
	eng.Schedule(100*time.Millisecond, "cont", func() { p.Signal(SigCont) })
	eng.MustDrain(100)
	if p.State() != StateExited {
		t.Fatalf("state = %v, want exited", p.State())
	}
}

func TestSignalDeadProcessIsNoop(t *testing.T) {
	eng, rt := newRT()
	p := rt.Spawn("quick", func(p *Process) error { return nil })
	eng.MustDrain(100)
	p.Signal(SigKill)
	p.Signal(SigStop)
	p.Signal(SigCont)
	if p.State() != StateExited {
		t.Fatalf("state = %v, want exited", p.State())
	}
}

func TestWaitEvent(t *testing.T) {
	eng, rt := newRT()
	var got any
	rt.Spawn("waiter", func(p *Process) error {
		got = p.WaitEvent("external", func(wake func(any)) {
			eng.Schedule(7*time.Second, "fire", func() { wake("payload") })
		})
		return nil
	})
	eng.MustDrain(100)
	if got != "payload" {
		t.Fatalf("WaitEvent = %v, want payload", got)
	}
	if eng.Now() != 7*time.Second {
		t.Fatalf("Now = %v, want 7s", eng.Now())
	}
}

// The wake contract after the exactly-once audit: each armed wait is woken
// exactly once. The two tolerated stale cases — a duplicate synchronous wake
// during setup, and a wake addressed to an already-terminated process (e.g.
// the sleep timer of a killed process firing late) — are discarded.

func TestWaitEventDuplicateSetupWakeIgnored(t *testing.T) {
	eng, rt := newRT()
	var got any
	rt.Spawn("waiter", func(p *Process) error {
		got = p.WaitEvent("immediate", func(wake func(any)) {
			wake("first")
			wake("second") // wait already satisfied: discarded
		})
		return nil
	})
	eng.MustDrain(100)
	if got != "first" {
		t.Fatalf("WaitEvent = %v, want first", got)
	}
}

func TestWakeAfterExitIgnored(t *testing.T) {
	eng, rt := newRT()
	var wk func(any)
	p := rt.Spawn("waiter", func(p *Process) error {
		p.WaitEvent("external", func(wake func(any)) {
			wk = wake
			eng.Schedule(time.Second, "fire", func() { wake("payload") })
		})
		return nil
	})
	eng.MustDrain(100)
	if p.State() != StateExited {
		t.Fatalf("state = %v, want exited", p.State())
	}
	wk("late") // stale wake to a dead process: discarded, no panic
	if p.State() != StateExited {
		t.Fatalf("state after late wake = %v, want exited", p.State())
	}
}

func TestWakeWithNoArmedWaitIgnored(t *testing.T) {
	eng, rt := newRT()
	p := rt.Spawn("sleeper", func(p *Process) error {
		p.Sleep(time.Hour)
		return nil
	})
	eng.RunUntil(time.Second)
	gen := p.WaitGen()
	// A stray Wake while parked is delivered to the armed wait (this is
	// exactly why sources must be exactly-once); after exit further wakes
	// are discarded without touching the generation counter.
	p.Signal(SigKill)
	eng.RunUntil(2 * time.Second)
	p.Wake(nil)
	if got := p.WaitGen(); got != gen {
		t.Fatalf("WaitGen after stale wake = %d, want %d", got, gen)
	}
}

func TestOnExitAfterTermination(t *testing.T) {
	eng, rt := newRT()
	p := rt.Spawn("quick", func(p *Process) error { return nil })
	eng.MustDrain(100)
	called := false
	p.OnExit(func(err error) { called = true })
	if !called {
		t.Fatal("OnExit after termination should fire immediately")
	}
}

func TestLive(t *testing.T) {
	eng, rt := newRT()
	a := rt.Spawn("a", func(p *Process) error { p.Sleep(time.Hour); return nil })
	b := rt.Spawn("b", func(p *Process) error { return nil })
	c := rt.SpawnInline("c", func(p *Process) { p.Exit(nil) })
	eng.RunUntil(time.Second)
	if !a.Alive() || b.Alive() || c.Alive() {
		t.Fatalf("alive: a %v, b %v, c %v; want only a", a.Alive(), b.Alive(), c.Alive())
	}
	if a.ParkReason() != "sleep" {
		t.Fatalf("ParkReason = %q, want sleep", a.ParkReason())
	}
	// Exiting ends either flavour, and a kill ends a parked process on the
	// spot.
	a.Signal(SigKill)
	if a.Alive() {
		t.Fatal("a parked process is alive after the kill")
	}
}

func TestSpawnFromProcess(t *testing.T) {
	eng, rt := newRT()
	var childDone bool
	rt.Spawn("parent", func(p *Process) error {
		rt.Spawn("child", func(c *Process) error {
			c.Sleep(time.Second)
			childDone = true
			return nil
		})
		p.Sleep(2 * time.Second)
		return nil
	})
	eng.MustDrain(100)
	if !childDone {
		t.Fatal("child spawned from process did not complete")
	}
}

func TestYieldPreservesFIFO(t *testing.T) {
	eng, rt := newRT()
	var order []int
	rt.Spawn("a", func(p *Process) error {
		order = append(order, 1)
		p.Sleep(0) // a zero sleep yields: same-instant events queued earlier run first
		order = append(order, 3)
		return nil
	})
	eng.Schedule(0, "between", func() { order = append(order, 2) })
	eng.MustDrain(100)
	// Spawn event runs first (scheduled first), body appends 1, yields;
	// then the "between" event appends 2; then the yield wake appends 3.
	want := []int{1, 2, 3}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestStateString(t *testing.T) {
	if StateRunning.String() != "running" || StateKilled.String() != "killed" {
		t.Fatal("State.String mismatch")
	}
	if SigKill.String() != "SIGKILL" {
		t.Fatal("Signal.String mismatch")
	}
}

func TestWaitEventSynchronousWake(t *testing.T) {
	eng, rt := newRT()
	var got any
	rt.Spawn("sync", func(p *Process) error {
		got = p.WaitEvent("immediate", func(wake func(any)) {
			wake("now") // delivered during setup: must not park
		})
		return nil
	})
	eng.MustDrain(100)
	if got != "now" {
		t.Fatalf("WaitEvent sync = %v, want now", got)
	}
}

// TestDeferSleepSpentAsSleep pins where a deferred sleep is spent when
// nothing takes it as a kernel's host lead: each body must leave the same
// observations, exit instant and engine event count with DeferSleep as with
// Sleep. A receive is spent ahead of even when its message is already
// waiting, and a body that returns mid-phase exits where the phase ends.
func TestDeferSleepSpentAsSleep(t *testing.T) {
	const d = 10 * time.Millisecond
	for _, tc := range []struct {
		name string
		body func(p *Process, host func(time.Duration), in, out *Mailbox[time.Duration])
	}{
		{"return", func(p *Process, host func(time.Duration), in, out *Mailbox[time.Duration]) {
			host(d)
		}},
		{"Recv with a message waiting", func(p *Process, host func(time.Duration), in, out *Mailbox[time.Duration]) {
			host(d)
			v, _ := in.Recv(p)
			out.Send(v)
		}},
		{"Now", func(p *Process, host func(time.Duration), in, out *Mailbox[time.Duration]) {
			host(d)
			out.Send(p.Now())
		}},
		{"twice, then a zero", func(p *Process, host func(time.Duration), in, out *Mailbox[time.Duration]) {
			host(d)
			host(2 * d)
			host(0)
			out.Send(-1)
		}},
		{"WaitEvent", func(p *Process, host func(time.Duration), in, out *Mailbox[time.Duration]) {
			host(d)
			out.Send(p.WaitEvent("event", func(wake func(any)) {
				p.Engine().ScheduleDetached(d, "wake", func() { wake(3 * d) })
			}).(time.Duration))
		}},
	} {
		run := func(deferred bool) (log []time.Duration, exitAt time.Duration, events uint64) {
			eng, rt := newRT()
			in, out := NewMailbox[time.Duration](), NewMailbox[time.Duration]()
			in.Send(7)
			p := rt.Spawn("body", func(p *Process) error {
				host := p.Sleep
				if deferred {
					host = p.DeferSleep
				}
				tc.body(p, host, in, out)
				return nil
			})
			p.OnExit(func(error) { exitAt = eng.Now() })
			rt.Spawn("observer", func(p *Process) error {
				for {
					v, ok := out.Recv(p)
					if !ok {
						return nil
					}
					log = append(log, v, p.Now())
				}
			})
			eng.MustDrain(100)
			return log, exitAt, eng.Dispatched()
		}
		wantLog, wantExit, wantEvents := run(false)
		gotLog, gotExit, gotEvents := run(true)
		if !slices.Equal(gotLog, wantLog) || gotExit != wantExit || gotEvents != wantEvents {
			t.Errorf("%s: DeferSleep gives observations %v, exit at %v, %d events; Sleep %v, %v, %d",
				tc.name, gotLog, gotExit, gotEvents, wantLog, wantExit, wantEvents)
		}
	}
}
