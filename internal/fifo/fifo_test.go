package fifo

import "testing"

func TestQueueOrderAndAt(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	if got := q.Pop(); got != 0 {
		t.Fatalf("Pop = %d, want 0", got)
	}
	if q.Len() != 4 || *q.At(0) != 1 || *q.At(3) != 4 {
		t.Fatalf("Len %d, front %d, back %d: want 4, 1, 4", q.Len(), *q.At(0), *q.At(3))
	}
	for want := 1; want < 5; want++ {
		if got := q.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

// TestQueueReusesStorage pins what the type is for: neither a draining
// queue nor one with a standing backlog regrows its storage, and a popped
// entry is not kept reachable.
func TestQueueReusesStorage(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	drain := func() {
		q.Push(v)
		q.Push(v)
		q.Pop()
		q.Pop()
	}
	for i := 0; i < 16; i++ {
		drain()
	}
	if allocs := testing.AllocsPerRun(1000, drain); allocs != 0 {
		t.Errorf("a draining queue allocates %.2f objects per cycle, want 0", allocs)
	}
	q.Push(v)
	backlog := func() {
		q.Push(v)
		q.Pop()
	}
	for i := 0; i < 16; i++ {
		backlog()
	}
	if allocs := testing.AllocsPerRun(1000, backlog); allocs != 0 {
		t.Errorf("a queue with a standing backlog allocates %.2f objects per cycle, want 0", allocs)
	}
	q.Pop()
	for i, slot := range q.buf[:cap(q.buf)] {
		if slot != nil {
			t.Fatalf("slot %d of the drained queue still references its entry", i)
		}
	}
}
