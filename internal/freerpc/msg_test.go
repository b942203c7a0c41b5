package freerpc

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"freeride/internal/simtime"
)

type localArgs struct {
	N int    `json:"n"`
	S string `json:"s"`
}

// TestLocalFastPathTyped verifies that a typed params struct crosses a
// MemPipe as the same value, with no JSON round-trip, and that the typed
// result comes back as-is.
func TestLocalFastPathTyped(t *testing.T) {
	eng := simtime.NewVirtual()
	mux := NewMux()
	var received any
	HandleFunc(mux, "Take", func(p localArgs) (any, error) {
		received = p
		return localArgs{N: p.N + 1, S: p.S + "!"}, nil
	})
	c1, c2 := MemPipe(eng, time.Millisecond)
	client := NewPeer(eng, c1, nil)
	NewPeer(eng, c2, mux)

	var result any
	client.Go("Take", localArgs{N: 41, S: "hi"}, 0, func(res any, err error) {
		if err != nil {
			t.Fatalf("Go: %v", err)
		}
		result = res
	})
	eng.MustDrain(10)

	if got, ok := received.(localArgs); !ok || got.N != 41 || got.S != "hi" {
		t.Fatalf("handler received %#v, want typed localArgs{41, hi}", received)
	}
	got, ok := result.(localArgs)
	if !ok {
		t.Fatalf("result is %T, want localArgs (typed, as sent)", result)
	}
	if got.N != 42 || got.S != "hi!" {
		t.Fatalf("result = %#v", got)
	}
}

// TestForeignParamsRejected: params that are neither the handler's type, a
// pooled one, nor raw JSON fail the call with an error naming both types.
func TestForeignParamsRejected(t *testing.T) {
	eng, client, _, mux := newPair(time.Millisecond)
	called := false
	HandleFunc(mux, "Take", func(localArgs) (any, error) { called = true; return nil, nil })
	r := goCall[any](client, "Take", map[string]any{"n": 7}, 0)
	eng.MustDrain(10)
	want := "params for Take are map[string]interface {}, want freerpc.localArgs"
	if called || r.err == nil || !strings.Contains(r.err.Error(), want) {
		t.Fatalf("handler called = %v, err = %v; want no call and an error containing %q", called, r.err, want)
	}
}

// TestDecodeResult covers the result shapes: typed value, raw JSON, nil,
// and a foreign type, which is an error naming both types.
func TestDecodeResult(t *testing.T) {
	if v, err := DecodeResult[int](7); v != 7 || err != nil {
		t.Fatalf("typed: %d, %v", v, err)
	}
	if v, err := DecodeResult[int](json.RawMessage("9")); v != 9 || err != nil {
		t.Fatalf("raw: %d, %v", v, err)
	}
	if _, err := DecodeResult[localArgs](map[string]any{"n": 3}); err == nil ||
		!strings.Contains(err.Error(), "result is map[string]interface {}, want freerpc.localArgs") {
		t.Fatalf("foreign: %v, want an error naming both types", err)
	}
	if v, err := DecodeResult[int](nil); v != 0 || err != nil {
		t.Fatalf("nil: %d, %v", v, err)
	}
}

// TestLocalCallTypedResult verifies DecodeResult hands a typed in-memory
// result to the caller as it is.
func TestLocalCallTypedResult(t *testing.T) {
	eng := simtime.NewVirtual()
	mux := NewMux()
	HandleFunc(mux, "Get", func(p localArgs) (any, error) {
		return localArgs{N: p.N * 10}, nil
	})
	c1, c2 := MemPipe(eng, time.Millisecond)
	client := NewPeer(eng, c1, nil)
	NewPeer(eng, c2, mux)

	r := goCall[localArgs](client, "Get", localArgs{N: 4}, 0)
	eng.MustDrain(100)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.v.N != 40 {
		t.Fatalf("out.N = %d, want 40", r.v.N)
	}
}
