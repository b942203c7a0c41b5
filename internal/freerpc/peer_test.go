package freerpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"freeride/internal/simtime"
)

type echoArgs struct {
	Text string `json:"text"`
	N    int    `json:"n"`
}

func newPair(latency time.Duration) (*simtime.Virtual, *Peer, *Peer, *Mux) {
	eng := simtime.NewVirtual()
	serverMux := NewMux()
	a, b := MemPipe(eng, latency)
	client := NewPeer(eng, a, nil)
	server := NewPeer(eng, b, serverMux)
	return eng, client, server, serverMux
}

// reply is the outcome of one call issued by goCall.
type reply[T any] struct {
	v   T
	err error
	at  time.Duration // when done ran
	n   int           // how often done ran
}

// goCall issues method on c and decodes the result into a T once done runs.
func goCall[T any](c *Peer, method string, params any, timeout time.Duration) *reply[T] {
	r := new(reply[T])
	c.Go(method, params, timeout, func(res any, err error) {
		if err == nil {
			r.v, err = DecodeResult[T](res)
		}
		r.err, r.at = err, c.eng.Now()
		r.n++
	})
	return r
}

func TestCallRoundTrip(t *testing.T) {
	eng, client, _, mux := newPair(200 * time.Microsecond)
	HandleFunc(mux, "Echo", func(p echoArgs) (any, error) {
		return echoArgs{Text: p.Text + "!", N: p.N * 2}, nil
	})
	r := goCall[echoArgs](client, "Echo", echoArgs{Text: "hi", N: 21}, 0)
	eng.MustDrain(100)
	if r.err != nil || r.v.Text != "hi!" || r.v.N != 42 {
		t.Fatalf("Echo = %+v, %v", r.v, r.err)
	}
	if r.at != 400*time.Microsecond {
		t.Fatalf("round trip took %v, want 400µs (2 hops)", r.at)
	}
}

func TestCallRemoteError(t *testing.T) {
	eng, client, _, mux := newPair(0)
	HandleFunc(mux, "Fail", func(json.RawMessage) (any, error) {
		return nil, errors.New("nope")
	})
	callErr := goCall[any](client, "Fail", nil, 0)
	eng.MustDrain(100)
	var re *RemoteError
	if !errors.As(callErr.err, &re) {
		t.Fatalf("err = %v, want RemoteError", callErr.err)
	}
	if re.Msg != "nope" || re.Method != "Fail" {
		t.Fatalf("RemoteError = %+v", re)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	eng, client, _, _ := newPair(0)
	r := goCall[any](client, "Nope", nil, 0)
	eng.MustDrain(100)
	var re *RemoteError
	if !errors.As(r.err, &re) {
		t.Fatalf("err = %v, want RemoteError for unknown method", r.err)
	}
}

func TestCallTimeout(t *testing.T) {
	eng, client, _, mux := newPair(time.Second) // very slow link
	HandleFunc(mux, "Slow", func(json.RawMessage) (any, error) { return "done", nil })
	r := goCall[string](client, "Slow", nil, 500*time.Millisecond)
	eng.MustDrain(100)
	if !errors.Is(r.err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", r.err)
	}
	if r.at != 500*time.Millisecond {
		t.Fatalf("timed out at %v, want 500ms", r.at)
	}
}

func TestLateResponseAfterTimeoutIgnored(t *testing.T) {
	eng, client, _, mux := newPair(time.Second)
	HandleFunc(mux, "Slow", func(json.RawMessage) (any, error) { return 1, nil })
	r := goCall[int](client, "Slow", nil, 100*time.Millisecond)
	eng.MustDrain(100) // outlives the late response
	if r.n != 1 || !errors.Is(r.err, ErrTimeout) {
		t.Fatalf("done ran %d times, last with %v; want once, timed out (late response must not complete it again)", r.n, r.err)
	}
}

func TestNotify(t *testing.T) {
	eng, client, _, mux := newPair(time.Millisecond)
	var got []int
	HandleFunc(mux, "Push", func(n int) (any, error) {
		got = append(got, n)
		return nil, nil
	})
	for i := 1; i <= 3; i++ {
		if err := client.Notify("Push", i); err != nil {
			t.Fatalf("Notify: %v", err)
		}
	}
	eng.MustDrain(100)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("notifications = %v, want [1 2 3]", got)
	}
}

func TestCloseFailsPendingCalls(t *testing.T) {
	eng, client, _, mux := newPair(50 * time.Millisecond)
	HandleFunc(mux, "Hang", func(json.RawMessage) (any, error) { return nil, nil })
	r := goCall[any](client, "Hang", nil, 0)
	// Close the client side before the response can arrive.
	eng.Schedule(10*time.Millisecond, "close", func() { client.Close() })
	eng.MustDrain(100)
	if !errors.Is(r.err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", r.err)
	}
}

func TestBidirectionalCalls(t *testing.T) {
	eng := simtime.NewVirtual()
	muxA, muxB := NewMux(), NewMux()
	ca, cb := MemPipe(eng, time.Millisecond)
	peerA := NewPeer(eng, ca, muxA)
	peerB := NewPeer(eng, cb, muxB)
	HandleFunc(muxA, "A.Name", func(struct{}) (any, error) { return "A", nil })
	HandleFunc(muxB, "B.Name", func(struct{}) (any, error) { return "B", nil })
	fromB := goCall[string](peerA, "B.Name", struct{}{}, 0)
	fromA := goCall[string](peerB, "A.Name", struct{}{}, 0)
	eng.MustDrain(100)
	if fromA.v != "A" || fromB.v != "B" || fromA.err != nil || fromB.err != nil {
		t.Fatalf("bidirectional = %q/%q (%v, %v), want A/B", fromA.v, fromB.v, fromA.err, fromB.err)
	}
}

func TestGoAsync(t *testing.T) {
	eng, client, _, mux := newPair(time.Millisecond)
	HandleFunc(mux, "Add", func(p echoArgs) (any, error) { return p.N + 1, nil })
	var result int
	client.Go("Add", echoArgs{N: 41}, 0, func(res any, err error) {
		if err != nil {
			t.Errorf("Go err: %v", err)
			return
		}
		v, derr := DecodeResult[int](res)
		if derr != nil {
			t.Errorf("decode: %v", derr)
		}
		result = v
	})
	eng.MustDrain(100)
	if result != 42 {
		t.Fatalf("async result = %d, want 42", result)
	}
}

// Property: a request, a notification and an error response cross a pair
// of Wires over a FramePipe with their IDs, methods and errors, and with
// params and results that decode to what was sent.
func TestEnvelopeRoundTrip(t *testing.T) {
	eng := simtime.NewVirtual()
	a, b := FramePipe(eng, 0)
	tx, rx := Wire(a), Wire(b)
	var got []Msg
	tx.SetMsgHandler(func(Msg) {})
	rx.SetMsgHandler(func(m Msg) { got = append(got, m) })
	decodes := func(v any, want string) bool {
		s, err := DecodeResult[string](v)
		return err == nil && s == want
	}
	f := func(id uint64, method, payload string) bool {
		method = "M." + method // a request's method is never empty
		sent := []Msg{
			{ID: id, Method: method, Params: payload},
			{Method: method, Params: payload},
			{ID: id, Result: payload},
			{ID: id, Err: "e: " + payload},
		}
		got = got[:0]
		for _, m := range sent {
			if err := tx.SendMsg(m); err != nil {
				return false
			}
		}
		eng.MustDrain(uint64(len(sent)))
		if len(got) != len(sent) {
			return false
		}
		for i, m := range sent {
			g := got[i]
			if g.ID != m.ID || g.Method != m.Method || g.Err != m.Err {
				return false
			}
			if m.Params != nil && !decodes(g.Params, payload) || m.Result != nil && !decodes(g.Result, payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPTransportLive(t *testing.T) {
	// Live-mode integration: a paced engine, real TCP loopback.
	eng := simtime.NewWall()
	mux := NewMux()
	HandleFunc(mux, "Echo", func(p echoArgs) (any, error) {
		return echoArgs{Text: p.Text, N: p.N + 1}, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() { _ = Serve(eng, ln, mux, nil) }()

	var client *Peer
	eng.Do(func() { client, err = Dial(eng, "tcp", ln.Addr().String(), nil) })
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer eng.Do(client.Close)

	done := make(chan error, 1)
	var got echoArgs
	eng.Do(func() {
		client.Go("Echo", echoArgs{Text: "live", N: 1}, 5*time.Second, func(res any, err error) {
			if err == nil {
				got, err = DecodeResult[echoArgs](res)
			}
			done <- err
		})
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("live call: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("live call did not complete")
	}
	if got.Text != "live" || got.N != 2 {
		t.Fatalf("live Echo = %+v", got)
	}
}

func TestTCPServerManyClients(t *testing.T) {
	eng := simtime.NewWall()
	mux := NewMux()
	var mu sync.Mutex
	seen := map[string]bool{}
	HandleFunc(mux, "Hello", func(name string) (any, error) {
		mu.Lock()
		seen[name] = true
		mu.Unlock()
		return "ok", nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() { _ = Serve(eng, ln, mux, nil) }()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		name := fmt.Sprintf("client%d", i)
		go func() {
			defer wg.Done()
			var c *Peer
			var err error
			eng.Do(func() { c, err = Dial(eng, "tcp", ln.Addr().String(), nil) })
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer eng.Do(c.Close)
			ok := make(chan struct{})
			eng.Do(func() {
				c.Go("Hello", name, 5*time.Second, func(res any, err error) {
					if err != nil {
						t.Errorf("call: %v", err)
					}
					close(ok)
				})
			})
			select {
			case <-ok:
			case <-time.After(10 * time.Second):
				t.Error("call timed out")
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 4 {
		t.Fatalf("server saw %d clients, want 4", len(seen))
	}
}

// TestTCPImmediateHangUp: a client that hangs up as soon as it has connected
// closes the server's peer exactly once, and a call issued on that peer
// afterwards, through Do, fails with ErrClosed.
func TestTCPImmediateHangUp(t *testing.T) {
	eng := simtime.NewWall()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var closes atomic.Int32
	closed := make(chan *Peer, 1)
	go func() {
		_ = Serve(eng, ln, nil, func(p *Peer) {
			p.Conn().OnClose(func() {
				if closes.Add(1) == 1 {
					closed <- p
				}
			})
		})
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	nc.Close()
	var srv *Peer
	select {
	case srv = <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("the server's peer never saw the hang-up")
	}
	eng.Do(srv.Close) // already closed: no second close
	failed := make(chan error, 1)
	eng.Do(func() { srv.Go("Echo", nil, 0, func(_ any, err error) { failed <- err }) })
	select {
	case err := <-failed:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("call on the hung-up peer: err = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call on the hung-up peer never completed")
	}
	if n := closes.Load(); n != 1 {
		t.Fatalf("server peer closed %d times, want 1", n)
	}
}

func BenchmarkMemPipeCall(b *testing.B) {
	eng, client, _, mux := newPair(100 * time.Microsecond)
	HandleFunc(mux, "Echo", func(p echoArgs) (any, error) { return p, nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := goCall[echoArgs](client, "Echo", echoArgs{Text: "x", N: i}, 0)
		eng.MustDrain(4)
		if r.err != nil {
			b.Fatal(r.err)
		}
	}
}

// TestMuxLateRegistration registers methods into a table already in use:
// every registration is served, and none displaces another.
func TestMuxLateRegistration(t *testing.T) {
	mux := NewMux()
	HandleFunc(mux, "First", func(echoArgs) (any, error) { return nil, nil })
	for i := 0; i < 50; i++ {
		HandleFunc(mux, fmt.Sprintf("Late%d", i), func(json.RawMessage) (any, error) { return nil, nil })
		if _, ok := mux.handlers["First"]; !ok {
			t.Fatal("a registered method vanished from the table")
		}
	}
	for i := 0; i < 50; i++ {
		if _, ok := mux.handlers[fmt.Sprintf("Late%d", i)]; !ok {
			t.Fatalf("Late%d not served", i)
		}
	}
}
