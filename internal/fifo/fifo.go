// Package fifo holds the one queue the control plane pops at the head on a
// hot path: simproc.Mailbox's message queue and the manager's per-worker
// pending-bubble list both sit on it.
package fifo

// Queue is an unbounded FIFO that reuses its storage: Pop is O(1) — it
// advances a head index and zeroes the slot, so a consumed entry does not
// stay reachable — and the storage is reclaimed from the front once the
// queue drains or fills, so a push/pop steady state never regrows it.
// Popping by re-slicing (q[1:]) would shed a slot of capacity per pop
// instead. Not synchronised: the owner locks around it. The zero Queue is
// empty and ready.
type Queue[T any] struct {
	buf  []T // buf[head:] are the queued entries
	head int
}

// Len reports the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// At returns the i-th queued entry, 0 being the front; the pointer is valid
// until the next Push or Pop.
func (q *Queue[T]) At(i int) *T { return &q.buf[q.head+i] }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Full with consumed slots in front: shift down instead of growing.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the front entry; the queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
