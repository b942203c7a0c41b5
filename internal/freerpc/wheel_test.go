package freerpc

import (
	"errors"
	"testing"
	"time"

	"freeride/internal/simtime"
)

// TestPendingCallRecycleStaleReply is the free-list recycle-safety test: a
// stale (duplicate) reply carrying a completed call's id must not complete
// the call that recycled its record. Ids are never reused, so the stale
// reply has to miss the pending map entirely.
func TestPendingCallRecycleStaleReply(t *testing.T) {
	eng := simtime.NewVirtual()
	mux := NewMux()
	HandleFunc(mux, "Echo", func(p int) (any, error) { return p, nil })
	c1, c2 := MemPipe(eng, time.Microsecond)
	client := NewPeer(eng, c1, nil)
	NewPeer(eng, c2, mux)

	var got1, got2 []any
	client.Go("Echo", 11, 0, func(result any, err error) {
		if err != nil {
			t.Fatalf("call 1: %v", err)
		}
		got1 = append(got1, result)
	})
	eng.MustDrain(8)
	if len(got1) != 1 || got1[0] != 11 {
		t.Fatalf("call 1 results = %v, want [11]", got1)
	}
	if n := len(client.callFree); n != 1 {
		t.Fatalf("free list after call 1 = %d, want 1 (record not recycled)", n)
	}

	// Call 2 reuses the recycled record under a fresh id.
	client.Go("Echo", 22, 0, func(result any, err error) {
		if err != nil {
			t.Fatalf("call 2: %v", err)
		}
		got2 = append(got2, result)
	})

	// A stale duplicate reply for the completed id 1 arrives while call 2
	// is in flight: it must complete nothing — in particular not call 2,
	// whose pendingCall record is the recycled one.
	client.onMsg(Msg{ID: 1, Result: 99})
	if len(got1) != 1 {
		t.Fatalf("stale reply re-completed call 1: %v", got1)
	}
	if len(got2) != 0 {
		t.Fatalf("stale reply completed call 2: %v", got2)
	}

	eng.MustDrain(8)
	if len(got2) != 1 || got2[0] != 22 {
		t.Fatalf("call 2 results = %v, want [22]", got2)
	}
	// And a stale reply after everything settled is equally inert.
	client.onMsg(Msg{ID: 2, Result: 99})
	if len(got1) != 1 || len(got2) != 1 {
		t.Fatalf("late duplicate re-completed a call: %v %v", got1, got2)
	}
}

// TestPendingCallFreeListReuse pins the free-list steady state: sequential
// calls recycle one record instead of growing the pool.
func TestPendingCallFreeListReuse(t *testing.T) {
	eng := simtime.NewVirtual()
	mux := NewMux()
	HandleFunc(mux, "Echo", func(p int) (any, error) { return p, nil })
	c1, c2 := MemPipe(eng, time.Microsecond)
	client := NewPeer(eng, c1, nil)
	NewPeer(eng, c2, mux)

	for i := 0; i < 100; i++ {
		client.Go("Echo", i, time.Second, nil)
		eng.MustDrain(8)
	}
	if n := len(client.callFree); n > 1 {
		t.Fatalf("free list grew to %d after sequential calls; records are not being reused", n)
	}
}

// TestDeadlineWheelTimeoutOrdering: calls with out-of-order timeouts, each
// on its own engine timer, must expire in deadline order, each at exactly its
// own issue+timeout instant — a later call carrying an earlier deadline
// included.
func TestDeadlineWheelTimeoutOrdering(t *testing.T) {
	eng := simtime.NewVirtual()
	// No peer on the far end: calls are sent into the void and can only
	// end by timing out.
	c1, _ := MemPipe(eng, time.Microsecond)
	client := NewPeer(eng, c1, nil)

	type expiry struct {
		name string
		at   time.Duration
	}
	var expiries []expiry
	call := func(name string, timeout time.Duration) {
		client.Go(name, nil, timeout, func(result any, err error) {
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("%s: err = %v, want ErrTimeout", name, err)
			}
			expiries = append(expiries, expiry{name: name, at: eng.Now()})
		})
	}
	// A (3s) is issued first; B (1s) must expire before it; C (2s) lands in
	// between.
	call("A", 3*time.Second)
	call("B", time.Second)
	call("C", 2*time.Second)

	eng.MustDrain(100)
	want := []expiry{{"B", time.Second}, {"C", 2 * time.Second}, {"A", 3 * time.Second}}
	if len(expiries) != len(want) {
		t.Fatalf("expiries = %v, want %v", expiries, want)
	}
	for i := range want {
		if expiries[i] != want[i] {
			t.Fatalf("expiry %d = %+v, want %+v", i, expiries[i], want[i])
		}
	}
}

// TestDeadlineWheelSimultaneousExpiry pins the tie-break: calls sharing one
// deadline expire in issue order, each as an event of its own (the engine's
// (when, seq) order: each timer was armed when its call was issued).
func TestDeadlineWheelSimultaneousExpiry(t *testing.T) {
	eng := simtime.NewVirtual()
	c1, _ := MemPipe(eng, time.Microsecond)
	client := NewPeer(eng, c1, nil)

	var order []string
	for _, name := range []string{"x", "y", "z"} {
		name := name
		client.Go(name, nil, time.Second, func(result any, err error) {
			order = append(order, name)
		})
	}
	eng.MustDrain(100)
	if len(order) != 3 || order[0] != "x" || order[1] != "y" || order[2] != "z" {
		t.Fatalf("expiry order = %v, want [x y z]", order)
	}
}

// TestReplyBeatsDeadline asserts a call whose reply arrived first is never
// timed out as well.
func TestReplyBeatsDeadline(t *testing.T) {
	eng := simtime.NewVirtual()
	mux := NewMux()
	HandleFunc(mux, "Echo", func(p int) (any, error) { return p, nil })
	c1, c2 := MemPipe(eng, time.Microsecond)
	client := NewPeer(eng, c1, nil)
	NewPeer(eng, c2, mux)

	var results []any
	var errs []error
	client.Go("Echo", 7, time.Second, func(result any, err error) {
		results = append(results, result)
		errs = append(errs, err)
	})
	// Run well past the deadline: the call must not be completed twice.
	eng.RunUntil(5 * time.Second)
	if len(results) != 1 || errs[0] != nil || results[0] != 7 {
		t.Fatalf("results = %v errs = %v, want one clean reply", results, errs)
	}
}

// TestGoRoundTripAllocFree pins the measurement-run contract: a Peer.Go
// round-trip over a MemPipe — pre-boxed params, armed deadline, typed
// handler, engine-delivered reply — allocates nothing once pools are warm.
// This is the NoTraces-equivalent setting of the grids: timeouts are armed
// (the manager always sets one) but never fire.
func TestGoRoundTripAllocFree(t *testing.T) {
	eng := simtime.NewVirtual()
	mux := NewMux()
	type params struct {
		A int64 `json:"a"`
	}
	HandleFunc(mux, "Echo", func(p params) (any, error) { return nil, nil })
	c1, c2 := MemPipe(eng, time.Microsecond)
	client := NewPeer(eng, c1, nil)
	NewPeer(eng, c2, mux)

	boxed := any(params{A: 1}) // boxed once; the caller's job in 0-alloc paths
	done := func(result any, err error) {
		if err != nil {
			t.Fatalf("call failed: %v", err)
		}
	}
	// The deadline is armed with the call and disarmed with its reply.
	const timeout = 10 * time.Microsecond
	roundTrip := func() {
		client.Go("Echo", boxed, timeout, done)
		eng.MustDrain(8)
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	allocs := testing.AllocsPerRun(2000, roundTrip)
	if allocs != 0 {
		t.Fatalf("Peer.Go round-trip allocates %.2f objects/op, want 0", allocs)
	}
}

// TestNotifyAllocFree pins the worker→manager push path: a pre-boxed
// notification over a MemPipe allocates nothing.
func TestNotifyAllocFree(t *testing.T) {
	eng := simtime.NewVirtual()
	mux := NewMux()
	type status struct {
		Name  string `json:"name"`
		State int    `json:"state"`
	}
	HandleFunc(mux, "Report", func(p status) (any, error) { return nil, nil })
	c1, c2 := MemPipe(eng, time.Microsecond)
	client := NewPeer(eng, c1, nil)
	NewPeer(eng, c2, mux)

	boxed := any(status{Name: "t", State: 3})
	push := func() {
		_ = client.Notify("Report", boxed)
		eng.MustDrain(2)
	}
	for i := 0; i < 64; i++ {
		push()
	}
	allocs := testing.AllocsPerRun(2000, push)
	if allocs != 0 {
		t.Fatalf("Notify allocates %.2f objects/op, want 0", allocs)
	}
}
