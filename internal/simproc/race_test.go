package simproc

import (
	"testing"
	"time"

	"freeride/internal/simtime"
)

// TestFutexHandshakeStressStopContKill (the name predates the coroutine)
// hammers park/resume from many wakers: on a paced engine, events are
// dispatched from the runtime timer's goroutines and the test's own, so each
// process's coroutine is entered from a different goroutine every time, and
// Stop/Cont/Kill signals land between arbitrary parks. Run with -race this validates that the
// coroutine switch orders every resumer against the body, and the
// stopped/killed transitions. The test goroutine itself enters the engine
// through Do.
func TestFutexHandshakeStressStopContKill(t *testing.T) {
	eng := simtime.NewWall()
	v := eng.Engine()
	rt := NewRuntime(v)

	const procs = 8
	targets := make([]*Process, procs)
	eng.Do(func() {
		for i := 0; i < procs; i++ {
			targets[i] = rt.Spawn("worker", func(p *Process) error {
				for {
					p.Sleep(200 * time.Microsecond)
				}
			})
		}
	})

	// Signal storms, delivered from engine-callback context as required.
	var storm func(round int)
	storm = func(round int) {
		for _, p := range targets {
			switch round % 3 {
			case 0:
				p.Signal(SigStop)
			case 1:
				p.Signal(SigCont)
			case 2:
				p.Signal(SigStop)
				p.Signal(SigCont)
			}
		}
		if round < 30 {
			v.Schedule(300*time.Microsecond, "storm", func() { storm(round + 1) })
		}
	}
	// Give the storm time to interleave with the sleep/wake cycles, then
	// kill everything — some processes mid-park, some stopped, some with a
	// deferred pending wake.
	done := make(chan struct{})
	eng.Do(func() {
		v.Schedule(time.Millisecond, "storm", func() { storm(0) })
		v.Schedule(30*time.Millisecond, "killall", func() {
			for _, p := range targets {
				p.Signal(SigKill)
			}
			close(done)
		})
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("kill event never fired")
	}

	// Every process must wind down to killed (a process stopped or parked
	// at kill time dies immediately; one racing into a park dies at that
	// park, woken by its in-flight sleep timer).
	deadline := time.Now().Add(5 * time.Second)
	for _, p := range targets {
		var state State
		var reason string
		for {
			eng.Do(func() { state, reason = p.State(), p.ParkReason() })
			if (state != StateRunning && state != StateStopped) || !time.Now().Before(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if state == StateRunning || state == StateStopped {
			t.Fatalf("process %s still alive after kill (state %v, parked on %q)",
				p.Name(), state, reason)
		}
		if state != StateKilled {
			t.Fatalf("process %s state = %v, want killed", p.Name(), state)
		}
	}
}
