package freerpc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"freeride/internal/simtime"
)

// wirePair is a client and a server peer, each on a Wire over one end of a
// FramePipe.
func wirePair(latency time.Duration) (*simtime.Virtual, *Peer, *Mux) {
	eng, mux := simtime.NewVirtual(), NewMux()
	a, b := FramePipe(eng, latency)
	client := NewPeer(eng, Wire(a), nil)
	NewPeer(eng, Wire(b), mux)
	return eng, client, mux
}

// TestWireMarshalErrors: params that do not marshal fail the call through
// the engine, and a result that does not marshal comes back as the remote
// error "marshal result: …".
func TestWireMarshalErrors(t *testing.T) {
	eng, client, mux := wirePair(time.Millisecond)
	HandleFunc(mux, "Func", func(struct{}) (any, error) { return func() {}, nil })
	badParams := goCall[any](client, "Func", make(chan int), 0)
	badResult := goCall[any](client, "Func", nil, 0)
	if badParams.n != 0 {
		t.Fatal("a send error completed the call synchronously")
	}
	eng.MustDrain(10)
	if badParams.n != 1 || badParams.err == nil || !strings.Contains(badParams.err.Error(), "marshal params") {
		t.Fatalf("unmarshallable params: %d completions, err = %v", badParams.n, badParams.err)
	}
	var re *RemoteError
	if !errors.As(badResult.err, &re) || !strings.HasPrefix(re.Msg, "marshal result: ") {
		t.Fatalf("unmarshallable result: err = %v, want a remote marshal-result error", badResult.err)
	}
}

// TestWireDropsMalformedFrames: a frame that does not decode is dropped, and
// the frames around it are served.
func TestWireDropsMalformedFrames(t *testing.T) {
	eng := simtime.NewVirtual()
	a, raw := FramePipe(eng, time.Millisecond)
	client := NewPeer(eng, Wire(a), nil)
	raw.SetRecvHandler(func([]byte) {}) // the server end answers by hand
	r := goCall[int](client, "Echo", nil, 0)
	for _, frame := range []string{`{"id":1,"result":`, `not json`, `{"id":1,"result":5}`} {
		if err := raw.Send([]byte(frame)); err != nil {
			t.Fatal(err)
		}
	}
	eng.MustDrain(10)
	if r.n != 1 || r.err != nil || r.v != 5 {
		t.Fatalf("reply = %d, %v (%d completions); want 5 once", r.v, r.err, r.n)
	}
}
