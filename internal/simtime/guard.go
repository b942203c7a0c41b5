package simtime

import "sync"

// Guard is a mutex that rides the engine ownership regime: bound to a
// virtual engine, it is free (no atomic, one predicted branch) while the
// engine is in its single-owner regime — where, by the regime's definition,
// every component entry point runs on the dispatcher or on a process
// coroutine it is suspended in, and mutual exclusion is vacuous — and
// becomes a real mutex the moment the engine escalates. Unbound (or bound to
// a non-virtual engine, e.g. the inherently concurrent Wall), it always
// locks.
//
// This is how the simulation data plane (simgpu devices, simproc processes
// and sync primitives, freerpc peers and pipes) sheds its lock traffic in
// every simulated session — goroutine shells included: they are inside the
// single-owner regime — without giving up safety under a live transport:
// the same EscalateShared call (freerpc.NewNetConn's) that arms the engine's
// own mutex arms every Guard bound to it, before the first concurrent
// goroutine exists.
//
// The invariant Guards inherit from the engine: escalation must not happen
// while the escalating goroutine is inside a Guard-protected critical
// section (no component calls freerpc.NewNetConn with a Guard held —
// callbacks and wakes are invoked outside locks throughout). A violation
// fails loudly: Unlock of a mutex the matching Lock skipped panics.
type Guard struct {
	mu sync.Mutex
	v  *Virtual // non-nil: skip the mutex while v is single-owner
}

// Bind ties the guard to eng's ownership regime. Call once, at construction
// time, before the guarded component is shared. Binding to a non-virtual
// engine leaves the guard in always-lock mode.
func (g *Guard) Bind(eng Engine) {
	if v, ok := eng.(*Virtual); ok {
		g.v = v
	}
}

// Lock acquires the guard (a no-op in the single-owner regime).
func (g *Guard) Lock() {
	if g.v == nil || g.v.shared {
		g.mu.Lock()
	}
}

// Unlock releases the guard.
func (g *Guard) Unlock() {
	if g.v == nil || g.v.shared {
		g.mu.Unlock()
	}
}
