package freerpc

import (
	"encoding/json"
	"testing"
	"time"

	"freeride/internal/simproc"
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
		t.Fatalf("result is %T, want localArgs (typed fast path)", result)
	}
	if got.N != 42 || got.S != "hi!" {
		t.Fatalf("result = %#v", got)
	}
}

// TestLocalForeignParamsBridge verifies that mismatched param types (e.g. a
// hand-rolled map) still reach a typed handler over the fast path, bridged
// through JSON once.
func TestLocalForeignParamsBridge(t *testing.T) {
	eng := simtime.NewVirtual()
	mux := NewMux()
	var got localArgs
	HandleFunc(mux, "Take", func(p localArgs) (any, error) { got = p; return nil, nil })
	c1, c2 := MemPipe(eng, time.Millisecond)
	client := NewPeer(eng, c1, nil)
	NewPeer(eng, c2, mux)

	if err := client.Notify("Take", map[string]any{"n": 7, "s": "map"}); err != nil {
		t.Fatal(err)
	}
	eng.MustDrain(10)
	if got.N != 7 || got.S != "map" {
		t.Fatalf("bridged params = %#v", got)
	}
}

// TestDecodeResult covers the three result shapes: typed value, raw JSON,
// and a foreign type needing the bridge.
func TestDecodeResult(t *testing.T) {
	if v, err := DecodeResult[int](7); v != 7 || err != nil {
		t.Fatalf("typed: %d, %v", v, err)
	}
	if v, err := DecodeResult[int](json.RawMessage("9")); v != 9 || err != nil {
		t.Fatalf("raw: %d, %v", v, err)
	}
	if v, err := DecodeResult[localArgs](map[string]any{"n": 3}); v.N != 3 || err != nil {
		t.Fatalf("bridge: %#v, %v", v, err)
	}
	if v, err := DecodeResult[int](nil); v != 0 || err != nil {
		t.Fatalf("nil: %d, %v", v, err)
	}
}

// TestLocalCallTypedResult verifies the blocking Call API decodes a typed
// fast-path result into the caller's pointer without JSON.
func TestLocalCallTypedResult(t *testing.T) {
	eng := simtime.NewVirtual()
	mux := NewMux()
	HandleFunc(mux, "Get", func(p localArgs) (any, error) {
		return localArgs{N: p.N * 10}, nil
	})
	c1, c2 := MemPipe(eng, time.Millisecond)
	client := NewPeer(eng, c1, nil)
	NewPeer(eng, c2, mux)

	procs := simproc.NewRuntime(eng)
	var out localArgs
	var callErr error
	procs.Spawn("caller", func(p *simproc.Process) error {
		callErr = client.Call(p, "Get", localArgs{N: 4}, &out, 0)
		return nil
	})
	eng.MustDrain(100)
	if callErr != nil {
		t.Fatal(callErr)
	}
	if out.N != 40 {
		t.Fatalf("out.N = %d, want 40", out.N)
	}
}
