package freerpc

import (
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"time"

	"freeride/internal/simtime"
)

// typedHandler serves one RPC method: params arrive as the value the caller
// passed, or as raw JSON when they crossed a Wire.
type typedHandler func(params any) (any, error)

// Mux is a method dispatch table shared by any number of peers on one engine
// (the worker registers its methods once and serves every manager connection
// with them).
type Mux struct {
	handlers map[string]typedHandler
}

// NewMux returns an empty dispatch table.
func NewMux() *Mux {
	return &Mux{handlers: make(map[string]typedHandler)}
}

// HandleFunc registers a typed handler for method, replacing any previous
// registration. P is the caller's params type: a request whose params are a
// P or a pooled P (both ends share the DTO type) is dispatched with zero
// JSON work, and one that crossed a Wire arrives as raw JSON and is
// unmarshalled into a fresh P. Params of any other type fail the call with
// an error naming both types. fn receives P by value: a pooled params value
// is recycled as soon as fn returns, and the copy is all fn may keep.
// Handlers run in engine-callback context and must not block; long work
// should be scheduled or handed to a process. A method without params takes
// P = struct{}, one that decodes its params itself P = json.RawMessage.
func HandleFunc[P any](m *Mux, method string, fn func(params P) (any, error)) {
	m.handlers[method] = func(params any) (any, error) {
		switch p := params.(type) {
		case nil:
			var zero P
			return fn(zero)
		case P:
			return fn(p)
		case *Pooled[P]:
			return fn(p.V)
		case json.RawMessage:
			// Its own variable: the address taken here must not move the
			// live cases' P to the heap.
			var decoded P
			if len(p) > 0 {
				if err := json.Unmarshal(p, &decoded); err != nil {
					return nil, fmt.Errorf("freerpc: bad params for %s: %w", method, err)
				}
			}
			return fn(decoded)
		}
		var want P
		return nil, fmt.Errorf("freerpc: params for %s are %T, want %T", method, params, want)
	}
}

// RemoteError is a failure reported by the remote handler.
type RemoteError struct {
	Method string
	Msg    string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("freerpc: remote %s: %s", e.Method, e.Msg)
}

// Peer is one endpoint of an RPC connection: it can both serve methods (via
// its Mux) and issue calls. It sends and receives only typed Msg values;
// whether they cross as they are (MemPipe) or as JSON frames (Wire) is its
// Conn's business.
//
// A call with a timeout owns one engine timer, armed when the call is issued
// and canceled when it completes by any other path; the engine alone orders
// a reply against its deadline (see Go).
type Peer struct {
	eng  *simtime.Virtual
	conn Conn
	mux  *Mux

	nextID  uint64
	pending []*pendingCall // in issue order: Go appends, ids are monotonic
	closed  bool

	// callFree recycles pendingCall records: the struct never escapes to
	// callers, and call ids are never reused (nextID is monotonic), so a
	// stale reply to a completed call can never resolve the record's next
	// incarnation — it simply misses the pending list.
	callFree []*pendingCall
}

type pendingCall struct {
	id     uint64
	method string
	done   func(result any, err error)
	// timeout is the call's original deadline budget, kept for the expiry
	// error message.
	timeout time.Duration
	// timer is the call's deadline, a reusable Reschedule handle that
	// survives recycling with the record, as does expireFn, its callback,
	// bound to the record once.
	timer    *simtime.Timer
	expireFn func()
}

var noopDone = func(any, error) {}

// NewPeer wraps conn. mux may be nil for call-only endpoints.
func NewPeer(eng *simtime.Virtual, conn Conn, mux *Mux) *Peer {
	p := &Peer{eng: eng, conn: conn, mux: mux}
	// Before the receive handler, which starts a socket's read pump: a
	// hang-up the pump reports must find failAll registered.
	conn.OnClose(p.failAll)
	conn.SetMsgHandler(p.onMsg)
	return p
}

// newCall takes a pendingCall from the free-list.
func (p *Peer) newCall() *pendingCall {
	if n := len(p.callFree); n > 0 {
		c := p.callFree[n-1]
		p.callFree[n-1] = nil
		p.callFree = p.callFree[:n-1]
		return c
	}
	c := &pendingCall{}
	c.expireFn = func() { p.expire(c) }
	return c
}

// freeCall disarms, clears and pools a completed call record. The caller
// must already have removed it from pending and copied out what it needs —
// once recycled, the record may immediately back a new call.
func (p *Peer) freeCall(c *pendingCall) {
	c.timer.Cancel()
	c.id, c.method, c.done, c.timeout = 0, "", nil, 0
	p.callFree = append(p.callFree, c)
}

// take removes call id from pending and returns it (nil: not pending). A
// peer has a handful of calls in flight, so the scan costs less than a map.
func (p *Peer) take(id uint64) *pendingCall {
	for i, c := range p.pending {
		if c.id == id {
			p.pending = slices.Delete(p.pending, i, i+1)
			return c
		}
	}
	return nil
}

// Conn returns the underlying transport.
func (p *Peer) Conn() Conn { return p.conn }

// Close tears down the connection; pending calls fail with ErrClosed.
func (p *Peer) Close() { _ = p.conn.Close() }

// expire is a call's deadline: the call fails with ErrTimeout. Its timer is
// canceled on every other exit, so the call is still pending.
func (p *Peer) expire(c *pendingCall) {
	p.take(c.id)
	done, method, timeout := c.done, c.method, c.timeout
	p.freeCall(c)
	done(nil, fmt.Errorf("%w: %s after %v", ErrTimeout, method, timeout))
}

// resolve completes the pending call for a response.
func (p *Peer) resolve(id uint64, result any, errMsg string) {
	call := p.take(id)
	if call == nil {
		return // response to a timed-out or unknown call
	}
	done, method := call.done, call.method
	// Recycle before running done: the record is off the list, so even a
	// duplicate reply for this id can no longer reach it, and done itself
	// may issue a new call that reuses it.
	p.freeCall(call)
	if errMsg != "" {
		done(nil, &RemoteError{Method: method, Msg: errMsg})
		return
	}
	done(result, nil)
	recycle(result) // consumed: done has returned (see Msg)
}

// onMsg receives one message from the conn.
func (p *Peer) onMsg(m Msg) {
	if m.Method != "" {
		p.serve(m)
		return
	}
	p.resolve(m.ID, m.Result, m.Err)
}

// serve dispatches a request and responds in kind. The params are recycled
// once the handler has returned (see Msg).
func (p *Peer) serve(m Msg) {
	var result any
	var errMsg string
	if p.mux == nil {
		errMsg = "no handler table"
	} else if h, ok := p.mux.handlers[m.Method]; !ok {
		errMsg = fmt.Sprintf("unknown method %q", m.Method)
	} else {
		r, err := h(m.Params)
		if err != nil {
			errMsg = err.Error()
		} else {
			result = r
		}
	}
	recycle(m.Params)
	if m.ID == 0 {
		return // notification: no response
	}
	_ = p.conn.SendMsg(Msg{ID: m.ID, Result: result, Err: errMsg})
}

// failAll fails every pending call with ErrClosed, in issue order: the
// failure callbacks may draw from a seeded rng (the manager's retry jitter).
func (p *Peer) failAll() {
	if p.closed {
		return
	}
	p.closed = true
	pending := p.pending
	p.pending = nil
	// Every deadline goes before any callback runs: a timer left armed
	// would complete its call a second time.
	for _, c := range pending {
		c.timer.Cancel()
	}
	for _, c := range pending {
		c.done(nil, ErrClosed)
	}
}

// Go issues an asynchronous call; done fires in engine-callback context,
// never synchronously from inside Go itself — callers may be half-way
// through updating their own state (the manager is) and immediate failures
// (closed peer, send error) are delivered through the engine like any reply.
// The result is the handler's value when the connection is in-memory and
// raw JSON (json.RawMessage) when it crossed a Wire — use DecodeResult to
// consume it uniformly. A zero timeout means no deadline.
//
// A timeout arms the call's own engine timer at Now()+timeout; the reply,
// a send error or a hang-up cancels it, so an answered call costs no engine
// event. A reply and the deadline due at one instant are ordered by the
// engine's (when, seq) rule alone: the deadline was armed when the call was
// issued, before the reply's delivery was scheduled, so the call times out.
//
// Ownership (see Msg): params belong to the link from here on — a pooled
// value is recycled by whoever consumes it, never by the caller, not even
// when done reports a timeout. The result is only valid until done returns;
// a pooled result is recycled right after.
func (p *Peer) Go(method string, params any, timeout time.Duration, done func(result any, err error)) {
	if done == nil {
		done = noopDone
	}
	if p.closed {
		p.failAsync(done, ErrClosed)
		return
	}
	p.nextID++
	id := p.nextID
	call := p.newCall()
	call.id, call.method, call.done, call.timeout = id, method, done, timeout
	p.pending = append(p.pending, call)
	if timeout > 0 {
		call.timer = p.eng.Reschedule(call.timer, timeout, "rpc-timeout", call.expireFn)
	}

	if err := p.conn.SendMsg(Msg{ID: id, Method: method, Params: params}); err != nil {
		// A conn that closed inside SendMsg has failed the call already.
		if c := p.take(id); c != nil {
			p.freeCall(c)
			p.failAsync(done, err)
		}
	}
}

// failAsync delivers a call failure from engine-callback context, upholding
// Go's no-synchronous-completion contract.
func (p *Peer) failAsync(done func(result any, err error), err error) {
	p.eng.ScheduleDetached(0, "rpc-fail", func() { done(nil, err) })
}

// Notify sends a one-way message (no response, no delivery guarantee beyond
// the transport's).
func (p *Peer) Notify(method string, params any) error {
	return p.conn.SendMsg(Msg{Method: method, Params: params})
}

// Serve accepts connections from ln and wires each to a new Peer over mux,
// on the engine eng paces. It returns when the listener fails (e.g. is
// closed). Each accepted peer is built, and reported through onPeer (may be
// nil), inside eng.Do.
func Serve(eng *simtime.Wall, ln net.Listener, mux *Mux, onPeer func(*Peer)) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		eng.Do(func() {
			peer := NewPeer(eng.Engine(), Wire(NewNetConn(eng, nc)), mux)
			if onPeer != nil {
				onPeer(peer)
			}
		})
	}
}

// Dial connects to a live RPC server over TCP, with a peer on the engine eng
// paces. Like every entry into a component on that engine, it is called from
// one of its callbacks or inside eng.Do.
func Dial(eng *simtime.Wall, network, addr string, mux *Mux) (*Peer, error) {
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("freerpc: dial %s: %w", addr, err)
	}
	return NewPeer(eng.Engine(), Wire(NewNetConn(eng, nc)), mux), nil
}
