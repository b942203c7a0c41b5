package simproc

import "freeride/internal/fifo"

// Latch is a one-shot flag: the pipeline drivers publish completion through
// one (Trainer.Done, Server.Done); per-op dependency edges use
// pipeline.Runner's scoreboard. Nothing waits on a latch — the session drain
// loop polls IsSet once per simulated event — and, like everything on an
// engine, it is touched only from its owner's goroutine, so it is a plain
// bool and the zero Latch is ready to use.
type Latch struct {
	set bool
}

// Set sets the latch. Setting twice is a no-op.
func (l *Latch) Set() { l.set = true }

// IsSet reports whether the latch has been set.
func (l *Latch) IsSet() bool { return l.set }

// Mailbox is an unbounded FIFO queue of T with blocking receive, used for
// inter-process messages (a side task's state-transition commands). It is
// typed, so sending a struct boxes nothing, and a wake carries no message:
// the woken receiver pops for itself, so a message that arrives while the
// receiving process is stopped simply waits in line behind the deferred wake.
type Mailbox[T any] struct {
	queue  fifo.Queue[T]
	waiter *Process // at most one blocked receiver
	closed bool
}

// NewMailbox returns an empty mailbox.
func NewMailbox[T any]() *Mailbox[T] { return &Mailbox[T]{} }

// Closed is the wake payload a RecvThen continuation observes when the
// mailbox is closed with nothing left to receive; Recv translates it to
// ok == false.
type Closed struct{}

// Send enqueues msg, waking a blocked receiver if any. Send to a closed
// mailbox is dropped.
func (m *Mailbox[T]) Send(msg T) {
	if m.closed {
		return
	}
	m.queue.Push(msg)
	w := m.waiter
	m.waiter = nil
	if w != nil {
		w.Wake(nil)
	}
}

// Close marks the mailbox closed; a blocked receiver wakes with ok=false.
func (m *Mailbox[T]) Close() {
	if m.closed {
		return
	}
	m.closed = true
	w := m.waiter
	m.waiter = nil
	if w != nil {
		w.Wake(Closed{})
	}
}

// TryRecv dequeues without blocking; ok is false when empty.
func (m *Mailbox[T]) TryRecv() (msg T, ok bool) {
	if m.queue.Len() == 0 {
		return msg, false
	}
	return m.queue.Pop(), true
}

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int {
	return m.queue.Len()
}

// register enrolls an armed receiver, waking it at once if a message (or the
// close) raced in between the caller's check and the registration.
func (m *Mailbox[T]) register(p *Process) {
	if m.queue.Len() > 0 {
		p.Wake(nil)
		return
	}
	if m.closed {
		p.Wake(Closed{})
		return
	}
	if m.waiter != nil {
		panic("simproc: concurrent Recv on Mailbox")
	}
	m.waiter = p
}

// Recv parks p until a message is available. ok is false if the mailbox was
// closed while waiting (or already closed and drained). Only one process may
// block on a mailbox at a time. A deferred sleep is spent first, even when a
// message is already waiting: the sleep would have come before the receive.
func (m *Mailbox[T]) Recv(p *Process) (msg T, ok bool) {
	p.spendDeferred()
	for {
		if m.queue.Len() > 0 {
			msg = m.queue.Pop()
			return msg, true
		}
		if m.closed {
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
