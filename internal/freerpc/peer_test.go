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

	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

type echoArgs struct {
	Text string `json:"text"`
	N    int    `json:"n"`
}

func newPair(latency time.Duration) (*simtime.Virtual, *simproc.Runtime, *Peer, *Peer, *Mux) {
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	serverMux := NewMux()
	a, b := MemPipe(eng, latency)
	client := NewPeer(eng, a, nil)
	server := NewPeer(eng, b, serverMux)
	return eng, procs, client, server, serverMux
}

func TestCallRoundTrip(t *testing.T) {
	eng, procs, client, _, mux := newPair(200 * time.Microsecond)
	HandleFunc(mux, "Echo", func(p echoArgs) (any, error) {
		return echoArgs{Text: p.Text + "!", N: p.N * 2}, nil
	})
	var got echoArgs
	var at time.Duration
	procs.Spawn("caller", func(p *simproc.Process) error {
		if err := client.Call(p, "Echo", echoArgs{Text: "hi", N: 21}, &got, 0); err != nil {
			return err
		}
		at = p.Now()
		return nil
	})
	eng.MustDrain(100)
	if got.Text != "hi!" || got.N != 42 {
		t.Fatalf("Echo = %+v", got)
	}
	if at != 400*time.Microsecond {
		t.Fatalf("round trip took %v, want 400µs (2 hops)", at)
	}
}

func TestCallRemoteError(t *testing.T) {
	eng, procs, client, _, mux := newPair(0)
	HandleFunc(mux, "Fail", func(json.RawMessage) (any, error) {
		return nil, errors.New("nope")
	})
	var callErr error
	procs.Spawn("caller", func(p *simproc.Process) error {
		callErr = client.Call(p, "Fail", nil, nil, 0)
		return nil
	})
	eng.MustDrain(100)
	var re *RemoteError
	if !errors.As(callErr, &re) {
		t.Fatalf("err = %v, want RemoteError", callErr)
	}
	if re.Msg != "nope" || re.Method != "Fail" {
		t.Fatalf("RemoteError = %+v", re)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	eng, procs, client, _, _ := newPair(0)
	var callErr error
	procs.Spawn("caller", func(p *simproc.Process) error {
		callErr = client.Call(p, "Nope", nil, nil, 0)
		return nil
	})
	eng.MustDrain(100)
	var re *RemoteError
	if !errors.As(callErr, &re) {
		t.Fatalf("err = %v, want RemoteError for unknown method", callErr)
	}
}

func TestCallTimeout(t *testing.T) {
	eng, procs, client, _, mux := newPair(time.Second) // very slow link
	HandleFunc(mux, "Slow", func(json.RawMessage) (any, error) { return "done", nil })
	var callErr error
	var at time.Duration
	procs.Spawn("caller", func(p *simproc.Process) error {
		callErr = client.Call(p, "Slow", nil, nil, 500*time.Millisecond)
		at = p.Now()
		return nil
	})
	eng.MustDrain(100)
	if !errors.Is(callErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", callErr)
	}
	if at != 500*time.Millisecond {
		t.Fatalf("timed out at %v, want 500ms", at)
	}
}

func TestLateResponseAfterTimeoutIgnored(t *testing.T) {
	eng, procs, client, _, mux := newPair(time.Second)
	HandleFunc(mux, "Slow", func(json.RawMessage) (any, error) { return 1, nil })
	calls := 0
	procs.Spawn("caller", func(p *simproc.Process) error {
		_ = client.Call(p, "Slow", nil, nil, 100*time.Millisecond)
		calls++
		p.Sleep(10 * time.Second) // outlive the late response
		calls++
		return nil
	})
	eng.MustDrain(100)
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (late response must not wake anything)", calls)
	}
}

func TestNotify(t *testing.T) {
	eng, _, client, _, mux := newPair(time.Millisecond)
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
	eng, procs, client, server, mux := newPair(50 * time.Millisecond)
	HandleFunc(mux, "Hang", func(json.RawMessage) (any, error) { return nil, nil })
	var callErr error
	procs.Spawn("caller", func(p *simproc.Process) error {
		callErr = client.Call(p, "Hang", nil, nil, 0)
		return nil
	})
	// Close the client side before the response can arrive.
	eng.Schedule(10*time.Millisecond, "close", func() { client.Close() })
	eng.MustDrain(100)
	if !errors.Is(callErr, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", callErr)
	}
	_ = server
}

func TestBidirectionalCalls(t *testing.T) {
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	muxA, muxB := NewMux(), NewMux()
	ca, cb := MemPipe(eng, time.Millisecond)
	peerA := NewPeer(eng, ca, muxA)
	peerB := NewPeer(eng, cb, muxB)
	HandleFunc(muxA, "A.Name", func(struct{}) (any, error) { return "A", nil })
	HandleFunc(muxB, "B.Name", func(struct{}) (any, error) { return "B", nil })
	var fromA, fromB string
	procs.Spawn("x", func(p *simproc.Process) error {
		if err := peerA.Call(p, "B.Name", struct{}{}, &fromB, 0); err != nil {
			return err
		}
		return peerB.Call(p, "A.Name", struct{}{}, &fromA, 0)
	})
	eng.MustDrain(100)
	if fromA != "A" || fromB != "B" {
		t.Fatalf("bidirectional = %q/%q, want A/B", fromA, fromB)
	}
}

func TestGoAsync(t *testing.T) {
	eng, _, client, _, mux := newPair(time.Millisecond)
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

// Property: the envelope codec round-trips arbitrary payload strings.
func TestEnvelopeRoundTrip(t *testing.T) {
	f := func(id uint64, method, payload string) bool {
		raw, err := json.Marshal(payload)
		if err != nil {
			return false
		}
		env := envelope{ID: id, Method: method, Params: raw}
		b, err := json.Marshal(env)
		if err != nil {
			return false
		}
		var back envelope
		if err := json.Unmarshal(b, &back); err != nil {
			return false
		}
		var p2 string
		if err := json.Unmarshal(back.Params, &p2); err != nil {
			return false
		}
		return back.ID == id && back.Method == method && p2 == payload
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPTransportLive(t *testing.T) {
	// Live-mode integration: wall-clock engine, real TCP loopback.
	eng := simtime.NewWall()
	procs := simproc.NewRuntime(eng)
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
		procs.Spawn("caller", func(p *simproc.Process) error {
			err := client.Call(p, "Echo", echoArgs{Text: "live", N: 1}, &got, 5*time.Second)
			done <- err
			return err
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
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	mux := NewMux()
	HandleFunc(mux, "Echo", func(p echoArgs) (any, error) { return p, nil })
	ca, cb := MemPipe(eng, 100*time.Microsecond)
	client := NewPeer(eng, ca, nil)
	NewPeer(eng, cb, mux)
	b.ReportAllocs()
	b.ResetTimer()
	procs.Spawn("bench", func(p *simproc.Process) error {
		for i := 0; i < b.N; i++ {
			var out echoArgs
			if err := client.Call(p, "Echo", echoArgs{Text: "x", N: i}, &out, 0); err != nil {
				b.Error(err)
				return err
			}
		}
		return nil
	})
	eng.Drain(0)
}

// TestMuxLateRegistration registers methods into a table already in use:
// every registration is served on both paths, and none displaces another.
func TestMuxLateRegistration(t *testing.T) {
	mux := NewMux()
	HandleFunc(mux, "First", func(echoArgs) (any, error) { return nil, nil })
	for i := 0; i < 50; i++ {
		HandleFunc(mux, fmt.Sprintf("Late%d", i), func(json.RawMessage) (any, error) { return nil, nil })
		if _, ok := mux.local["First"]; !ok {
			t.Fatal("a registered method vanished from the fast path")
		}
	}
	for i := 0; i < 50; i++ {
		if _, ok := mux.local[fmt.Sprintf("Late%d", i)]; !ok {
			t.Fatalf("Late%d not served on the fast path", i)
		}
		if _, ok := mux.handlers[fmt.Sprintf("Late%d", i)]; !ok {
			t.Fatalf("Late%d not served on the wire path", i)
		}
	}
}
