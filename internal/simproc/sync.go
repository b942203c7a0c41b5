package simproc

import (
	"sync/atomic"

	"freeride/internal/fifo"
	"freeride/internal/simtime"
)

// Latch is a one-shot condition: processes wait until it is set. The
// pipeline drivers publish completion through one (Trainer.Done,
// Server.Done); per-op dependency edges use pipeline.Runner's scoreboard.
// Waiters are recorded as processes, not closures: Set wakes each one
// through its wait slot, so waiting is allocation-free beyond the waiter
// list itself. IsSet is a single atomic load — the training-done latch is
// polled once per simulated event by the session drain loop.
type Latch struct {
	mu      simtime.Guard
	set     atomic.Bool
	waiters []*Process
}

// NewLatch returns an unset latch whose lock rides eng's ownership regime
// (see simtime.Guard). A nil engine yields an always-locked latch.
func NewLatch(eng simtime.Engine) *Latch {
	l := &Latch{}
	if eng != nil {
		l.mu.Bind(eng)
	}
	return l
}

// Set releases all current and future waiters. Must be called from
// engine-callback or process context. Setting twice is a no-op.
func (l *Latch) Set() {
	l.mu.Lock()
	if l.set.Load() {
		l.mu.Unlock()
		return
	}
	l.set.Store(true)
	waiters := l.waiters
	l.waiters = nil
	l.mu.Unlock()
	for _, p := range waiters {
		p.Wake(nil)
	}
}

// IsSet reports whether the latch has been set.
func (l *Latch) IsSet() bool {
	return l.set.Load()
}

// register enrolls an armed waiter, waking it immediately if Set raced in
// between the caller's check and the registration.
func (l *Latch) register(p *Process) {
	l.mu.Lock()
	if l.set.Load() {
		l.mu.Unlock()
		p.Wake(nil)
		return
	}
	l.waiters = append(l.waiters, p)
	l.mu.Unlock()
}

// Wait parks p until the latch is set (returns immediately if already set).
func (l *Latch) Wait(p *Process) {
	if l.set.Load() {
		return
	}
	p.BeginWait(nil)
	l.register(p)
	p.Await("latch")
}

// WaitThen is the inline form of Wait: k runs once the latch is set —
// immediately (and synchronously) if it already is.
func (l *Latch) WaitThen(p *Process, k func(any)) {
	if l.set.Load() {
		k(nil)
		return
	}
	p.BeginWait(k)
	l.register(p)
	p.EndWait("latch")
}

// Mailbox is an unbounded FIFO queue of T with blocking receive, used for
// inter-process messages (a side task's state-transition commands). It is
// typed, so sending a struct boxes nothing, and a wake carries no message:
// the woken receiver pops for itself, so a message that arrives while the
// receiving process is stopped simply waits in line behind the deferred wake.
type Mailbox[T any] struct {
	mu     simtime.Guard
	queue  fifo.Queue[T]
	waiter *Process // at most one blocked receiver
	closed bool
}

// NewMailbox returns an empty (always-locked) mailbox; Bind ties it to an
// engine's ownership regime when one is available.
func NewMailbox[T any]() *Mailbox[T] { return &Mailbox[T]{} }

// Bind ties the mailbox lock to eng's ownership regime (see simtime.Guard).
// Call before the mailbox is reachable from more than one goroutine, from
// outside any mailbox operation.
func (m *Mailbox[T]) Bind(eng simtime.Engine) {
	if eng != nil {
		m.mu.Bind(eng)
	}
}

// Closed is the wake payload a RecvThen continuation observes when the
// mailbox is closed with nothing left to receive; Recv translates it to
// ok == false.
type Closed struct{}

// Send enqueues msg, waking a blocked receiver if any. Send to a closed
// mailbox is dropped.
func (m *Mailbox[T]) Send(msg T) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.queue.Push(msg)
	w := m.waiter
	m.waiter = nil
	m.mu.Unlock()
	if w != nil {
		w.Wake(nil)
	}
}

// Close marks the mailbox closed; a blocked receiver wakes with ok=false.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	w := m.waiter
	m.waiter = nil
	m.mu.Unlock()
	if w != nil {
		w.Wake(Closed{})
	}
}

// TryRecv dequeues without blocking; ok is false when empty.
func (m *Mailbox[T]) TryRecv() (msg T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.queue.Len() == 0 {
		return msg, false
	}
	return m.queue.Pop(), true
}

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queue.Len()
}

// register enrolls an armed receiver, waking it at once if a message (or the
// close) raced in between the caller's check and the registration.
func (m *Mailbox[T]) register(p *Process) {
	m.mu.Lock()
	if m.queue.Len() > 0 {
		m.mu.Unlock()
		p.Wake(nil)
		return
	}
	if m.closed {
		m.mu.Unlock()
		p.Wake(Closed{})
		return
	}
	if m.waiter != nil {
		m.mu.Unlock()
		panic("simproc: concurrent Recv on Mailbox")
	}
	m.waiter = p
	m.mu.Unlock()
}

// Recv parks p until a message is available. ok is false if the mailbox was
// closed while waiting (or already closed and drained). Only one process may
// block on a mailbox at a time.
func (m *Mailbox[T]) Recv(p *Process) (msg T, ok bool) {
	for {
		m.mu.Lock()
		if m.queue.Len() > 0 {
			msg = m.queue.Pop()
			m.mu.Unlock()
			return msg, true
		}
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return msg, false
		}
		p.BeginWait(nil)
		m.register(p)
		p.Await("mailbox")
	}
}

// RecvThen is the inline form of Recv: k runs once a message is available,
// with a nil payload, and takes it with TryRecv; if the mailbox is (or
// becomes) closed and drained, k runs with Closed{} instead.
func (m *Mailbox[T]) RecvThen(p *Process, k func(any)) {
	p.BeginWait(k)
	m.register(p)
	p.EndWait("mailbox")
}
