package simtime

import "sync"

// Guard is a mutex that is free on a virtual engine: bound to a *Virtual, it
// never locks (no atomic, one predicted branch), because every component
// entry point runs on the engine's one owner — its dispatcher or a process
// coroutine it is suspended in — and mutual exclusion is vacuous. Unbound,
// or bound to the wall engine, whose callbacks and socket pumps run on
// goroutines of their own, it is a plain mutex.
//
// This is how the simulation data plane (simgpu devices, simproc processes
// and sync primitives, freerpc peers and pipes) sheds its lock traffic in
// every simulated session, goroutine shells included, and keeps it in the
// live daemons.
type Guard struct {
	mu   sync.Mutex
	free bool // bound to a *Virtual: skip the mutex
}

// Bind ties the guard to eng. Call once, at construction time, before the
// guarded component is shared.
func (g *Guard) Bind(eng Engine) {
	_, g.free = eng.(*Virtual)
}

// Lock acquires the guard (a no-op on a virtual engine).
func (g *Guard) Lock() {
	if !g.free {
		g.mu.Lock()
	}
}

// Unlock releases the guard.
func (g *Guard) Unlock() {
	if !g.free {
		g.mu.Unlock()
	}
}
