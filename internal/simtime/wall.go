package simtime

import (
	"sync"
	"time"
)

// Wall paces a virtual engine to the wall clock, for the live manager/worker
// daemons. A daemon builds its components on Engine() exactly as a
// simulated session builds them on its own Virtual; the Wall only decides
// when the engine's events run. Its mutex is the only lock those components
// have: whoever holds it is the engine's dispatcher, and any goroutine — a
// daemon's own, a test's, a socket's read pump, an accept loop — enters
// through Do. One runtime timer, armed for the next queued event, enters
// Do with nothing to add when that event falls due.
type Wall struct {
	v     *Virtual
	epoch time.Time
	mu    sync.Mutex
	timer *time.Timer
}

// NewWall returns a paced engine whose epoch is the moment of creation.
func NewWall() *Wall {
	w := &Wall{v: NewVirtual(), epoch: time.Now()}
	w.timer = time.AfterFunc(time.Hour, func() { w.Do(func() {}) })
	w.timer.Stop() // Do arms it
	return w
}

// Engine returns the paced virtual engine. Its components are entered only
// from its callbacks or inside Do.
func (w *Wall) Engine() *Virtual { return w.v }

// Do runs every event due by now in real time, then fn, serialized with
// every other dispatch of this engine, and re-arms the runtime timer for the
// next queued event. So an input that enters through Do at real time r is
// ordered after every event due at or before r, and fn sees Now = r. fn must
// not wait for a callback (an RPC reply, a timer), which needs the mutex fn
// holds; it must not call Do either.
func (w *Wall) Do(fn func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.v.RunUntil(time.Since(w.epoch))
	fn()
	if t := w.v.peekMin(); t != nil {
		w.timer.Reset(t.when - time.Since(w.epoch))
	} else {
		w.timer.Stop()
	}
}
