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

// TestAnsweredCallLeavesNoTimerBehind: a call with a deadline that is
// answered costs its two deliveries and nothing else — its timer is canceled
// with the reply, not left to wake the engine at the deadline and find
// nothing.
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
	if eng.Pending() != 0 || len(client.pending) != 0 {
		t.Fatalf("after the last reply: %d events queued, %d calls pending; want none", eng.Pending(), len(client.pending))
	}
}

// TestRepliesInReverseOrderNeverFireTheTimer answers calls last-issued
// first, so every reply but the final one leaves an earlier deadline armed:
// each reply must cancel its own call's timer, and no other, so that once
// all are answered nothing is left to wake the engine.
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
		if got := eng.Pending(); got != int(id) {
			t.Fatalf("before reply %d: %d events queued, want %d (one deadline per unanswered call)", id, got, id)
		}
		client.onMsg(Msg{ID: id})
	}
	if replies != n {
		t.Fatalf("%d replies, want %d", replies, n)
	}
	if eng.Pending() != 0 || len(client.pending) != 0 {
		t.Fatalf("after the last reply: %d events queued, %d calls pending; want none", eng.Pending(), len(client.pending))
	}
	before := eng.Dispatched()
	eng.RunUntil(10 * time.Second)
	if fired := eng.Dispatched() - before; fired != 0 {
		t.Fatalf("%d events ran after every call was answered, want 0", fired)
	}
}

// TestUnansweredCallExpiresBesideAnsweredNeighbour: an answered call's
// deadline goes with its reply, and its unanswered neighbour fails with
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
	if eng.Pending() != 1 || len(client.pending) != 1 {
		t.Fatalf("after the reply: %d events queued, %d calls pending; want the neighbour's deadline alone", eng.Pending(), len(client.pending))
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

// TestReplyAtDeadlineLosesToIt pins the one tie rule: a reply delivered at
// exactly its call's deadline is ordered against it by the engine's (when,
// seq) alone. The deadline was armed when the call was issued, before the
// reply's delivery was scheduled, so the call times out — whatever another
// call on the same peer did in between (here A is answered first).
func TestReplyAtDeadlineLosesToIt(t *testing.T) {
	eng := simtime.NewVirtual()
	c1, _ := MemPipe(eng, time.Microsecond) // no server: the test answers
	client := NewPeer(eng, c1, nil)

	var aErrs, bErrs []error
	client.Go("A", nil, time.Second, func(_ any, err error) { aErrs = append(aErrs, err) })
	client.Go("B", nil, 2*time.Second, func(_ any, err error) { bErrs = append(bErrs, err) })
	eng.Schedule(500*time.Millisecond, "reply-A", func() { client.onMsg(Msg{ID: 1}) })
	eng.Schedule(2*time.Second, "reply-B", func() { client.onMsg(Msg{ID: 2}) })
	eng.RunUntil(10 * time.Second)

	if len(aErrs) != 1 || aErrs[0] != nil {
		t.Fatalf("A: errs = %v, want one reply", aErrs)
	}
	if len(bErrs) != 1 || !errors.Is(bErrs[0], ErrTimeout) {
		t.Fatalf("B: errs = %v, want one ErrTimeout (its deadline sorts before the reply due at the same instant)", bErrs)
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
	if eng.Pending() != 1 || len(client.pending) != 0 {
		t.Fatalf("refused call left %d events queued, %d calls pending; want its failure delivery alone", eng.Pending(), len(client.pending))
	}
	eng.RunUntil(5 * time.Second)
	if len(errs) != 1 || !errors.Is(errs[0], refused) {
		t.Fatalf("errs = %v, want the send error once", errs)
	}
	if got := eng.Dispatched(); got != 1 {
		t.Fatalf("%d events ran, want 1 (the failure delivery)", got)
	}

	// A refused call beside an accepted one cancels only its own deadline:
	// the accepted call's stays armed and still fires.
	conn.refuse = nil
	client.Go("Kept", 1, time.Second, func(_ any, err error) { errs = append(errs, err) })
	conn.refuse = refused
	client.Go("Refused", 1, 2*time.Second, func(_ any, err error) { errs = append(errs, err) })
	eng.RunUntil(20 * time.Second)
	if len(errs) != 3 || !errors.Is(errs[1], refused) || !errors.Is(errs[2], ErrTimeout) {
		t.Fatalf("errs = %v, want [refused, refused, timeout]", errs)
	}
	if eng.Pending() != 0 || len(client.pending) != 0 {
		t.Fatalf("at rest: %d events queued, %d calls pending; want none", eng.Pending(), len(client.pending))
	}
}

// TestFailAllCompletesInCallOrder: a severed link fails the outstanding
// calls in issue order, not map order — their callbacks may draw from a
// seeded rng — and once each: the deadlines of those that had one go with
// them, none left to fire later.
func TestFailAllCompletesInCallOrder(t *testing.T) {
	const calls = 5
	for round := 0; round < 100; round++ {
		eng := simtime.NewVirtual()
		conn := &refusingConn{}
		client := NewPeer(eng, conn, nil)
		var order []int
		for i := 0; i < calls; i++ {
			timeout := time.Duration(i%2) * time.Second // every other call has none
			client.Go("Echo", nil, timeout, func(_ any, err error) {
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("call %d: err = %v, want ErrClosed", i, err)
				}
				order = append(order, i)
			})
		}
		conn.sever()
		if got := eng.Pending(); got != 0 {
			t.Fatalf("round %d: %d events queued after the hang-up, want none", round, got)
		}
		eng.RunUntil(10 * time.Second)
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
	// Nothing is outstanding, so no call record may hold an armed deadline:
	// one left behind would complete a later call on the record.
	var pending, armed int
	eng.Do(func() {
		pending = len(client.pending)
		for _, c := range client.callFree {
			if c.timer.Pending() {
				armed++
			}
		}
	})
	if pending != 0 || armed != 0 {
		t.Fatalf("at rest: %d pending calls, %d free records with a deadline armed; want none", pending, armed)
	}
	if got := replies.Load() + timeouts.Load(); got != callers*perCaller {
		t.Fatalf("%d completions for %d calls", got, callers*perCaller)
	}
	t.Logf("round trip %v: %d replies, %d timeouts", rtt, replies.Load(), timeouts.Load())
}
