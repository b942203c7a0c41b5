package freerpc

import (
	"encoding/json"
	"fmt"
)

// Msg is the one message a Peer sends and receives: params and results are
// carried as Go values — the caller's own on a MemPipe, json.RawMessage when
// they arrive over a Wire. Requests have a non-empty Method; responses echo
// the request ID. An ID of zero marks a notification.
//
// Ownership: consume-then-recycle, abandon-on-loss. On a MemPipe no
// serialization boundary is crossed, so the receiver reads the very value
// the sender built, and the sender must not write to it again once it is
// sent. A plain value is therefore immutable after sending and left to the
// GC. A value that implements Recycler (a Pooled from the sender's Pool) is
// handed back by exactly one party at exactly one point: the receiving
// Peer, after the handler (params) or the done callback (result) has
// returned — so handlers and done callbacks must copy out whatever they
// keep. Nobody else recycles: a message dropped in a fault window, cut off
// by a severed link, refused by a closed conn, or a reply that lands after
// its call expired, is abandoned to the GC. Loss means abandon because the
// sender cannot tell a lost message from one still in flight behind a delay
// window; if it reclaimed the value on its own timeout, a late delivery
// would read the rewritten payload of whatever call reused it. Over a Wire
// the value never leaves the process: the Wire is its last reader and
// recycles it right after marshalling.
type Msg struct {
	ID     uint64
	Method string
	Params any
	Result any
	Err    string
}

// Recycler is a params or result value that returns to its sender's pool
// once consumed (see the ownership rule on Msg).
type Recycler interface {
	Recycle()
}

// recycle hands a consumed params/result value back to its owner, if it has
// one.
func recycle(v any) {
	if r, ok := v.(Recycler); ok {
		r.Recycle()
	}
}

// Pool is a sender-owned free list of params or result values of one type,
// for call sites that would otherwise box a fresh T per message. The sender
// takes a value with Get, fills V and sends the *Pooled[T] itself; typed
// handlers (HandleFunc[T]) and DecodeResult[T] read through it, and a Wire
// marshals it exactly as its V. A caller may keep its private per-call
// contexts in one too, calling Recycle itself when done has run. The zero
// Pool is ready to use.
type Pool[T any] struct {
	free []*Pooled[T]
}

// Pooled is one recyclable value of a Pool. V keeps its contents across a
// recycle, so a slice inside it can be refilled in place.
type Pooled[T any] struct {
	V    T
	pool *Pool[T]
}

// Get takes a value from the free list, or a fresh one when it is empty.
func (p *Pool[T]) Get() *Pooled[T] {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return v
	}
	return &Pooled[T]{pool: p}
}

// Recycle implements Recycler.
func (v *Pooled[T]) Recycle() {
	p := v.pool
	p.free = append(p.free, v)
}

// MarshalJSON makes a pooled value indistinguishable from its V on the wire.
func (v *Pooled[T]) MarshalJSON() ([]byte, error) { return json.Marshal(&v.V) }

// DecodeResult converts an RPC result — the handler's value (a T or a
// pooled T) on a MemPipe, json.RawMessage off a Wire — into T. A result of
// any other type is an error naming both types. The live cases return
// without touching the heap; a pooled result is copied out, so T's own
// slices still alias the pooled value and must be consumed before the done
// callback returns.
func DecodeResult[T any](v any) (T, error) {
	switch x := v.(type) {
	case nil:
		var zero T
		return zero, nil
	case T:
		return x, nil
	case *Pooled[T]:
		return x.V, nil
	}
	return decodeJSON[T](v)
}

// decodeJSON is DecodeResult's slow path, split out so the address-taken
// result it unmarshals into does not force a heap T on the live cases.
func decodeJSON[T any](v any) (T, error) {
	var out T
	raw, ok := v.(json.RawMessage)
	if !ok {
		return out, fmt.Errorf("freerpc: result is %T, want %T", v, out)
	}
	if len(raw) == 0 {
		return out, nil
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, fmt.Errorf("freerpc: decode result: %w", err)
	}
	return out, nil
}
