package freerpc

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"freeride/internal/simtime"
)

type poolArgs struct {
	A int64  `json:"a"`
	S string `json:"s,omitempty"`
}

// poolRig is a client and an "Echo" server over a faultable MemPipe; the
// server answers from its own pool with A+1.
type poolRig struct {
	eng     *simtime.Virtual
	client  *Peer
	faults  *LinkFault
	params  Pool[poolArgs] // client-owned
	results Pool[poolArgs] // server-owned
}

func newPoolRig() *poolRig {
	r := &poolRig{eng: simtime.NewVirtual()}
	mux := NewMux()
	HandleFunc(mux, "Echo", func(p poolArgs) (any, error) {
		out := r.results.Get()
		out.V = poolArgs{A: p.A + 1}
		return out, nil
	})
	c1, c2 := MemPipe(r.eng, time.Millisecond)
	r.faults = InjectFaults(c1)
	r.client = NewPeer(r.eng, c1, nil)
	NewPeer(r.eng, c2, mux)
	return r
}

// pooled reports whether v is back on p's free list.
func pooled[T any](p *Pool[T], v *Pooled[T]) bool {
	for _, f := range p.free {
		if f == v {
			return true
		}
	}
	return false
}

// TestPooledConsumeThenRecycle: params go back to the caller's pool once the
// handler has returned, the result to the server's once done has — not
// before done has read it.
func TestPooledConsumeThenRecycle(t *testing.T) {
	r := newPoolRig()
	args := r.params.Get()
	args.V = poolArgs{A: 41}
	var reply *Pooled[poolArgs]
	r.client.Go("Echo", args, time.Second, func(result any, err error) {
		if err != nil {
			t.Fatal(err)
		}
		reply = result.(*Pooled[poolArgs])
		if got, derr := DecodeResult[poolArgs](result); derr != nil || got.A != 42 {
			t.Fatalf("DecodeResult = %+v, %v", got, derr)
		}
		if pooled(&r.results, reply) {
			t.Fatal("result recycled before done returned")
		}
	})
	if pooled(&r.params, args) {
		t.Fatal("params recycled before delivery")
	}
	r.eng.MustDrain(8)
	if reply == nil {
		t.Fatal("call never completed")
	}
	if !pooled(&r.params, args) || !pooled(&r.results, reply) {
		t.Fatalf("after the round trip: params recycled = %v, result recycled = %v, want both",
			pooled(&r.params, args), pooled(&r.results, reply))
	}
	if r.params.Get() != args {
		t.Fatal("Get did not reuse the recycled value")
	}
}

// TestPooledAbandonOnLoss: a value on a message that is dropped, arrives
// for an expired call, or dies with the link is never recycled — its sender
// cannot tell lost from late, so it is left to the GC.
func TestPooledAbandonOnLoss(t *testing.T) {
	send := func(r *poolRig, timeout time.Duration) (*Pooled[poolArgs], *error) {
		args := r.params.Get()
		args.V = poolArgs{A: 1}
		got := new(error)
		r.client.Go("Echo", args, timeout, func(_ any, err error) { *got = err })
		return args, got
	}

	t.Run("dropped request", func(t *testing.T) {
		r := newPoolRig()
		r.faults.DropFor(10 * time.Millisecond)
		args, err := send(r, 50*time.Millisecond)
		r.eng.RunFor(time.Second)
		if !errors.Is(*err, ErrTimeout) {
			t.Fatalf("err = %v, want timeout", *err)
		}
		if pooled(&r.params, args) {
			t.Error("params of a dropped request were recycled")
		}
	})
	t.Run("request and reply landing after the call expired", func(t *testing.T) {
		r := newPoolRig()
		r.faults.DelayFor(10*time.Millisecond, 100*time.Millisecond)
		args, err := send(r, 50*time.Millisecond)
		r.eng.RunFor(60 * time.Millisecond)
		if !errors.Is(*err, ErrTimeout) {
			t.Fatalf("err = %v, want timeout", *err)
		}
		if pooled(&r.params, args) {
			t.Error("params recycled on the caller's timeout, with the request still in flight")
		}
		r.eng.RunFor(time.Second)
		if !pooled(&r.params, args) {
			t.Error("params not recycled after the late request was served")
		}
		if n := len(r.results.free); n != 0 {
			t.Errorf("the reply to an expired call was recycled (%d on the free list)", n)
		}
	})
	t.Run("severed link", func(t *testing.T) {
		// The client end closes with the request in flight: the request
		// still lands (the FIN is behind it) and is consumed; the reply
		// finds the client closed.
		r := newPoolRig()
		args, err := send(r, 0)
		r.faults.Sever()
		r.eng.RunFor(time.Second)
		if !errors.Is(*err, ErrClosed) {
			t.Fatalf("err = %v, want closed", *err)
		}
		if !pooled(&r.params, args) {
			t.Error("params of the served request were not recycled")
		}
		if n := len(r.results.free); n != 0 {
			t.Errorf("the reply cut off by the sever was recycled (%d on the free list)", n)
		}
	})
}

// TestPooledMarshalsAsValue: on the wire a pooled value is its V, byte for
// byte.
func TestPooledMarshalsAsValue(t *testing.T) {
	var p Pool[poolArgs]
	v := p.Get()
	v.V = poolArgs{A: 7, S: "x"}
	got, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(v.V)
	if string(got) != string(want) {
		t.Fatalf("pooled value marshals as %s, its V as %s", got, want)
	}
	env, err := json.Marshal(envelope{ID: 1, Method: "M", Params: got})
	if err != nil || string(env) != `{"id":1,"method":"M","params":{"a":7,"s":"x"}}` {
		t.Fatalf("envelope = %s, %v", env, err)
	}
}
