package simproc

import (
	"errors"
	"slices"
	"testing"
	"time"

	"freeride/internal/simtime"
)

// What a goroutine process being a coroutine of its resumer makes newly
// interesting, unpaced and paced (and, in CI, under -race): the coroutine
// entered from another body's goroutine, and a kill that lands before the
// coroutine has ever been entered.

// onBothEngines runs scenario once on a virtual engine and once on one a
// simtime.Wall paces. setup is how the scenario starts its processes: it
// returns once fn has run in a context where Spawn and Signal are ordered
// against every engine callback — the owner's, or the Wall's Do. finish
// returns once the given processes have terminated, also read through Do.
func onBothEngines(t *testing.T, scenario func(t *testing.T, rt *Runtime, setup func(fn func()), finish func(ps ...*Process))) {
	t.Run("virtual", func(t *testing.T) {
		eng := simtime.NewVirtual()
		scenario(t, NewRuntime(eng),
			func(fn func()) { fn() },
			func(...*Process) { eng.MustDrain(1000) })
	})
	t.Run("wall", func(t *testing.T) {
		eng := simtime.NewWall()
		scenario(t, NewRuntime(eng.Engine()),
			eng.Do,
			func(ps ...*Process) {
				deadline := time.Now().Add(5 * time.Second)
				for _, p := range ps {
					var alive bool
					var reason string
					for {
						eng.Do(func() { alive, reason = p.Alive(), p.ParkReason() })
						if !alive || !time.Now().Before(deadline) {
							break
						}
						time.Sleep(100 * time.Microsecond)
					}
					if alive {
						t.Fatalf("process %s still alive (parked on %q)", p.Name(), reason)
					}
				}
			})
	})
}

// TestNestedResumeFromProcessBody: a Send from A's body wakes B, so B's
// coroutine is entered from A's goroutine while A's own resumer is still
// suspended beneath it; B runs to its next park and A continues where it
// left off.
func TestNestedResumeFromProcessBody(t *testing.T) {
	onBothEngines(t, func(t *testing.T, rt *Runtime, setup func(func()), finish func(...*Process)) {
		box := NewMailbox[string]()
		var order []string
		var a, b *Process
		setup(func() {
			b = rt.Spawn("b", func(p *Process) error {
				for {
					msg, ok := box.Recv(p)
					if !ok {
						return nil
					}
					order = append(order, "b got "+msg)
				}
			})
			a = rt.Spawn("a", func(p *Process) error {
				p.Sleep(time.Millisecond) // b parks in Recv first
				for _, msg := range []string{"1", "2"} {
					order = append(order, "a sends "+msg)
					box.Send(msg)
				}
				box.Close()
				order = append(order, "a done")
				return nil
			})
		})
		finish(a, b)
		want := []string{"a sends 1", "b got 1", "a sends 2", "b got 2", "a done"}
		if !slices.Equal(order, want) {
			t.Fatalf("order = %q, want %q", order, want)
		}
		if a.ExitErr() != nil || b.ExitErr() != nil {
			t.Fatalf("exit errors: a %v, b %v", a.ExitErr(), b.ExitErr())
		}
	})
}

// TestKillBeforeStartEvent: a kill delivered before the start event has
// entered the coroutine takes effect like any kill of a running process —
// at the first blocking boundary, with defers run — never by skipping the
// body or by stopping a coroutine that was not started.
func TestKillBeforeStartEvent(t *testing.T) {
	onBothEngines(t, func(t *testing.T, rt *Runtime, setup func(func()), finish func(...*Process)) {
		var started, deferRan, pastPark bool
		var p *Process
		setup(func() {
			p = rt.Spawn("victim", func(p *Process) error {
				defer func() { deferRan = true }()
				started = true
				p.Sleep(time.Millisecond)
				pastPark = true
				return nil
			})
			p.Signal(SigKill)
		})
		finish(p)
		if p.State() != StateKilled || !errors.Is(p.ExitErr(), ErrKilled) {
			t.Fatalf("state %v, exit err %v; want killed, ErrKilled", p.State(), p.ExitErr())
		}
		if !started || !deferRan || pastPark {
			t.Fatalf("started %v, defers ran %v, ran past its first park %v; want true, true, false",
				started, deferRan, pastPark)
		}
	})
}
