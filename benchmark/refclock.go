package main

import "time"

// The reference clock. The box the benchmark runs on is a few cores of a
// shared host, and the host's speed moves in phases that last minutes: the
// same binary ran the same iteration in 0.18 s and, a quarter of an hour
// later, in 0.26 s. No statistic taken inside one run removes that, because
// the whole run sits in one phase. So the benchmark keeps its own clock: a
// fixed computation that belongs to the benchmark, not to the program under
// test, is timed before and after everything that is timed, and a timing is
// reported in reference seconds — wall seconds divided by how much slower
// than nominal the reference ran next to it. On a quiet reference box a
// reference second is a wall second.

// refNominal is what one refKernel takes on the quiet 2-core reference box
// (the 5th percentile of 1204 samples taken across quiet and busy phases).
const refNominal = 25 * time.Millisecond

const (
	refStateWords = 1 << 20 // 8 MB: beyond the private caches, like a large simulation
	refPending    = 4096
	refEvents     = 100_000
)

type refEvent struct {
	at int64
	id int32
}

var (
	refState [refStateWords]int64
	refLive  [refPending]*[6]int64
	refSink  int64
)

// refKernel is the fixed computation: an event queue with 4096 pending
// events dispatches 100,000 of them; each touches a random word of an 8 MB
// array, allocates 48 bytes that stay live for 4096 events, and schedules
// its successor. It is shaped like the simulator's inner loop (heap,
// pointer chasing, small allocations) so that what slows one slows the
// other, and it never changes: a change here rescales every timing.
func refKernel() time.Duration {
	start := time.Now()
	heap := make([]refEvent, 0, refPending)
	push := func(e refEvent) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() refEvent {
		top := heap[0]
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < n && heap[l].at < heap[m].at {
				m = l
			}
			if r < n && heap[r].at < heap[m].at {
				m = r
			}
			if m == i {
				break
			}
			heap[m], heap[i] = heap[i], heap[m]
			i = m
		}
		return top
	}
	x := uint64(88172645463325252) // xorshift64: the same events every time
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < refPending; i++ {
		push(refEvent{at: int64(next() % 1_000_000), id: int32(i)})
	}
	for n := 0; n < refEvents; n++ {
		e := pop()
		r := next()
		refState[r%refStateWords] += e.at
		b := new([6]int64)
		b[0] = e.at
		refLive[n%refPending] = b
		push(refEvent{at: e.at + int64(r>>40), id: e.id})
	}
	refSink += refState[0]
	return time.Since(start)
}

// slowdown is how much slower than nominal the host ran during an interval
// bracketed by two reference timings.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / float64(2*refNominal)
}
