package freerpc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freeride/internal/simtime"
)

// echoPair is a client/server pair over a MemPipe whose server answers "Echo".
func echoPair(eng *simtime.Virtual, latency time.Duration) *Peer {
	mux := NewMux()
	HandleFunc(mux, "Echo", func(p int) (any, error) { return p, nil })
	c1, c2 := MemPipe(eng, latency)
	client := NewPeer(eng, c1, nil)
	NewPeer(eng, c2, mux)
	return client
}

// TestAnsweredCallLeavesNoTimerBehind is the cancel-on-top pin: a call with a
// deadline that is answered costs its two deliveries and nothing else — the
// timer is disarmed with the reply, not left to wake the engine at the
// deadline and find nothing.
func TestAnsweredCallLeavesNoTimerBehind(t *testing.T) {
	eng := simtime.NewVirtual()
	client := echoPair(eng, time.Microsecond)

	const n = 100
	replies := 0
	for i := 0; i < n; i++ {
		client.Go("Echo", i, time.Second, func(_ any, err error) {
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			replies++
		})
		eng.MustDrain(8)
	}
	if replies != n {
		t.Fatalf("%d replies, want %d", replies, n)
	}
	if got := eng.Dispatched(); got != 2*n {
		t.Fatalf("%d sequential calls dispatched %d events, want %d (request + reply each)", n, got, 2*n)
	}
	if eng.Pending() != 0 || len(client.deadlines) != 0 {
		t.Fatalf("after the last reply: %d events queued, %d heap entries; want none", eng.Pending(), len(client.deadlines))
	}
}

// TestRepliesInReverseOrderNeverFireTheTimer answers calls last-issued
// first: every reply but the final one belongs to a non-top entry, which
// stays in the heap; the final one takes the top and must sweep the rest
// out with it instead of re-arming the timer on an entry nobody waits for.
func TestRepliesInReverseOrderNeverFireTheTimer(t *testing.T) {
	eng := simtime.NewVirtual()
	c1, _ := MemPipe(eng, time.Microsecond) // no server: the test answers
	client := NewPeer(eng, c1, nil)

	const n = 5
	replies := 0
	for i := 1; i <= n; i++ {
		client.Go("Echo", nil, time.Duration(i)*time.Second, func(_ any, err error) {
			if err != nil {
				t.Fatalf("call failed: %v", err)
			}
			replies++
		})
	}
	eng.RunUntil(time.Millisecond) // requests delivered into the void
	for id := uint64(n); id >= 1; id-- {
		if !client.deadlineTimer.Pending() || client.deadlineAt != time.Second {
			t.Fatalf("before reply %d: timer pending=%v at %v, want armed at call 1's deadline", id, client.deadlineTimer.Pending(), client.deadlineAt)
		}
		client.onMsg(Msg{ID: id})
	}
	if replies != n {
		t.Fatalf("%d replies, want %d", replies, n)
	}
	if eng.Pending() != 0 || len(client.deadlines) != 0 {
		t.Fatalf("after the last reply: %d events queued, %d heap entries; want none", eng.Pending(), len(client.deadlines))
	}
	before := eng.Dispatched()
	eng.RunUntil(10 * time.Second)
	if fired := eng.Dispatched() - before; fired != 0 {
		t.Fatalf("%d events ran after every call was answered, want 0", fired)
	}
}

// TestUnansweredCallExpiresBesideAnsweredNeighbour: the timer moves from an
// answered call's deadline to its unanswered neighbour's, which fails with
// ErrTimeout at exactly its own deadline — one timer event in all.
func TestUnansweredCallExpiresBesideAnsweredNeighbour(t *testing.T) {
	eng := simtime.NewVirtual()
	c1, _ := MemPipe(eng, time.Microsecond)
	client := NewPeer(eng, c1, nil)

	var answered, expiredAt []time.Duration
	client.Go("Early", nil, time.Second, func(_ any, err error) {
		if err != nil {
			t.Fatalf("answered call failed: %v", err)
		}
		answered = append(answered, eng.Now())
	})
	client.Go("Late", nil, 2*time.Second, func(_ any, err error) {
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("unanswered call: err = %v, want ErrTimeout", err)
		}
		expiredAt = append(expiredAt, eng.Now())
	})
	eng.RunUntil(time.Millisecond)
	client.onMsg(Msg{ID: 1})
	if !client.deadlineTimer.Pending() || client.deadlineAt != 2*time.Second {
		t.Fatalf("after the reply: timer pending=%v at %v, want armed at 2s", client.deadlineTimer.Pending(), client.deadlineAt)
	}
	before := eng.Dispatched()
	eng.RunUntil(10 * time.Second)
	if len(answered) != 1 || len(expiredAt) != 1 || expiredAt[0] != 2*time.Second {
		t.Fatalf("answered at %v, expired at %v; want one reply and one expiry at exactly 2s", answered, expiredAt)
	}
	if fired := eng.Dispatched() - before; fired != 1 {
		t.Fatalf("%d events after the reply, want 1 (the real expiry)", fired)
	}
}

// refusingConn is a transport that goes nowhere: SendMsg returns refuse,
// and sever closes it.
type refusingConn struct {
	refuse  error
	onClose []func()
}

func (c *refusingConn) SendMsg(Msg) error       { return c.refuse }
func (c *refusingConn) SetMsgHandler(func(Msg)) {}
func (c *refusingConn) Close() error            { return nil }
func (c *refusingConn) OnClose(fn func())       { c.onClose = append(c.onClose, fn) }
func (c *refusingConn) sever() {
	for _, fn := range c.onClose {
		fn()
	}
}

// TestSendErrorDisarmsDeadline: a call the transport refuses is failed
// through the engine once, and its deadline goes with it.
func TestSendErrorDisarmsDeadline(t *testing.T) {
	eng := simtime.NewVirtual()
	refused := errors.New("link refused the frame")
	conn := &refusingConn{refuse: refused}
	client := NewPeer(eng, conn, nil)

	var errs []error
	client.Go("Echo", 1, time.Second, func(_ any, err error) { errs = append(errs, err) })
	if len(errs) != 0 {
		t.Fatal("Go completed synchronously")
	}
	if len(client.deadlines) != 0 || client.deadlineTimer.Pending() {
		t.Fatalf("refused call left %d heap entries, timer pending=%v", len(client.deadlines), client.deadlineTimer.Pending())
	}
	eng.RunUntil(5 * time.Second)
	if len(errs) != 1 || !errors.Is(errs[0], refused) {
		t.Fatalf("errs = %v, want the send error once", errs)
	}
	if got := eng.Dispatched(); got != 1 {
		t.Fatalf("%d events ran, want 1 (the failure delivery)", got)
	}

	// A refused call behind an accepted one is not the top: the accepted
	// call's deadline stays armed and still fires.
	conn.refuse = nil
	client.Go("Kept", 1, time.Second, func(_ any, err error) { errs = append(errs, err) })
	conn.refuse = refused
	client.Go("Refused", 1, 2*time.Second, func(_ any, err error) { errs = append(errs, err) })
	eng.RunUntil(20 * time.Second)
	if len(errs) != 3 || !errors.Is(errs[1], refused) || !errors.Is(errs[2], ErrTimeout) {
		t.Fatalf("errs = %v, want [refused, refused, timeout]", errs)
	}
	if eng.Pending() != 0 || len(client.deadlines) != 0 {
		t.Fatalf("at rest: %d events queued, %d heap entries; want none", eng.Pending(), len(client.deadlines))
	}
}

// TestFailAllCompletesInCallOrder: a severed link fails the outstanding
// calls in issue order, not map order — their callbacks may draw from a
// seeded rng.
func TestFailAllCompletesInCallOrder(t *testing.T) {
	const calls = 5
	for round := 0; round < 100; round++ {
		eng := simtime.NewVirtual()
		conn := &refusingConn{}
		client := NewPeer(eng, conn, nil)
		var order []int
		for i := 0; i < calls; i++ {
			client.Go("Echo", nil, 0, func(_ any, err error) {
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("call %d: err = %v, want ErrClosed", i, err)
				}
				order = append(order, i)
			})
		}
		conn.sever()
		for i := range order {
			if order[i] != i {
				t.Fatalf("round %d: failure order %v, want issue order", round, order)
			}
		}
		if len(order) != calls {
			t.Fatalf("round %d: %d calls failed, want %d", round, len(order), calls)
		}
	}
}

// TestWallDeadlineRacesReply runs the cancel-on-reply path on a paced engine,
// with timeouts spread around the measured round trip so that each of the
// reply and the deadline wins some of the time. One engine orders the two —
// whichever goroutine dispatches them — and every call must still complete
// exactly once: a reply or ErrTimeout, never both, never neither. The callers
// are goroutines of their own and enter the engine through Do. Run under
// -race in CI.
func TestWallDeadlineRacesReply(t *testing.T) {
	eng := simtime.NewWall()
	var client *Peer
	eng.Do(func() { client = echoPair(eng.Engine(), 100*time.Microsecond) })

	// call issues one call and waits for its completion.
	call := func(n int, timeout time.Duration, done func(error)) bool {
		completed := make(chan struct{})
		var completions atomic.Int32
		eng.Do(func() {
			client.Go("Echo", n, timeout, func(_ any, err error) {
				if completions.Add(1) > 1 {
					t.Errorf("call %d (timeout %v) completed twice, the second time with err = %v", n, timeout, err)
					return
				}
				done(err)
				close(completed)
			})
		})
		select {
		case <-completed:
			return true
		case <-time.After(5 * time.Second):
			t.Errorf("call %d (timeout %v) completed neither way", n, timeout)
			return false
		}
	}

	// The round trip on this host, under this build (-race is several times
	// slower), so the timeouts below straddle it wherever the test runs.
	var rtt time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		if !call(-1, 0, func(error) {}) {
			return
		}
		rtt += time.Since(start) / 20
	}

	const callers, perCaller = 4, 250
	var replies, timeouts atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				n := c*perCaller + i
				timeout := rtt / 8 * time.Duration(4+n%9) // rtt/2 … 3·rtt/2
				ok := call(n, timeout, func(err error) {
					switch {
					case err == nil:
						replies.Add(1)
					case errors.Is(err, ErrTimeout):
						timeouts.Add(1)
					default:
						t.Errorf("call %d: %v", n, err)
					}
				})
				if !ok {
					return
				}
			}
		}()
	}
	wg.Wait()
	// Nothing is outstanding, so the heap must be empty; a deadline fire
	// still queued behind the last reply must find nothing to expire.
	time.Sleep(2 * rtt)
	var pending, entries int
	eng.Do(func() { pending, entries = len(client.pending), len(client.deadlines) })
	if pending != 0 || entries != 0 {
		t.Fatalf("at rest: %d pending calls, %d heap entries; want none", pending, entries)
	}
	if got := replies.Load() + timeouts.Load(); got != callers*perCaller {
		t.Fatalf("%d completions for %d calls", got, callers*perCaller)
	}
	t.Logf("round trip %v: %d replies, %d timeouts", rtt, replies.Load(), timeouts.Load())
}
