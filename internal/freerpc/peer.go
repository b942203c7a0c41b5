package freerpc

import (
	"encoding/json"
	"fmt"
	"maps"
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
type Peer struct {
	eng  *simtime.Virtual
	conn Conn
	mux  *Mux

	nextID  uint64
	pending map[uint64]*pendingCall
	closed  bool

	// callFree recycles pendingCall records: the struct never escapes to
	// callers, and call ids are never reused (nextID is monotonic), so a
	// stale reply to a completed call can never resolve the record's next
	// incarnation — it simply misses the pending map.
	callFree []*pendingCall

	// Call deadlines: one engine timer per peer instead of one per call, over
	// a min-heap of (at, id) entries with cancel-on-top. The invariant is that
	// the heap's top belongs to a call that is still pending and the timer is
	// armed at exactly that deadline — or the heap is empty and the timer is
	// disarmed — so the timer only ever fires to expire a real call. A call
	// that completes while its entry is the top takes the entry with it and
	// moves the timer on (settleDeadline); an entry further down stays
	// behind and is dropped, without an engine event, when it surfaces.
	deadlines     []deadlineEntry
	deadlineTimer *simtime.Timer
	// deadlineAt records the armed instant while deadlineTimer is pending
	// (a Timer does not report its deadline).
	deadlineAt time.Duration
	// deadlineFn is the timer callback, built once per peer.
	deadlineFn func()
}

type pendingCall struct {
	method string
	done   func(result any, err error)
	// timeout is the call's original deadline budget, kept for the expiry
	// error message.
	timeout time.Duration
}

// deadlineEntry is one heap entry: call id plus its absolute deadline.
type deadlineEntry struct {
	at time.Duration
	id uint64
}

var noopDone = func(any, error) {}

// NewPeer wraps conn. mux may be nil for call-only endpoints.
func NewPeer(eng *simtime.Virtual, conn Conn, mux *Mux) *Peer {
	p := &Peer{eng: eng, conn: conn, mux: mux, pending: make(map[uint64]*pendingCall)}
	p.deadlineFn = p.expireDeadlines
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
	return &pendingCall{}
}

// freeCall clears and pools a completed call record. The caller must already
// have removed it from pending and copied out what it needs — once recycled,
// the record may immediately back a new call.
func (p *Peer) freeCall(c *pendingCall) {
	c.method = ""
	c.done = nil
	c.timeout = 0
	p.callFree = append(p.callFree, c)
}

// Conn returns the underlying transport.
func (p *Peer) Conn() Conn { return p.conn }

// Close tears down the connection; pending calls fail with ErrClosed.
func (p *Peer) Close() { _ = p.conn.Close() }

// --- deadline heap ---------------------------------------------------------

// armDeadline records a call deadline and keeps the timer armed at the
// earliest outstanding one.
func (p *Peer) armDeadline(id uint64, at time.Duration) {
	p.deadlinePush(deadlineEntry{at: at, id: id})
	// The top is live without looking: the old top was, and the new entry is.
	p.moveTimer()
}

// settleDeadline is called when call id has left pending by any path but
// expiry (reply, send error). If its entry is the heap's top, the entry goes
// with it and the timer moves to the next live deadline; otherwise there is no
// entry, or it is dropped when it surfaces.
func (p *Peer) settleDeadline(id uint64) {
	if len(p.deadlines) > 0 && p.deadlines[0].id == id {
		p.deadlinePop()
		p.retime()
	}
}

// retime restores the invariant after entries left the top of the heap:
// entries of completed calls that surfaced are dropped, then the timer follows
// the new top.
func (p *Peer) retime() {
	for len(p.deadlines) > 0 {
		if _, live := p.pending[p.deadlines[0].id]; live {
			break
		}
		p.deadlinePop()
	}
	p.moveTimer()
}

// moveTimer arms the timer at the top's deadline unless it already is, or
// cancels it when the heap is empty.
func (p *Peer) moveTimer() {
	armed := p.deadlineTimer != nil && p.deadlineTimer.Pending()
	if len(p.deadlines) == 0 {
		if armed {
			p.deadlineTimer.Cancel()
		}
		return
	}
	if at := p.deadlines[0].at; !armed || p.deadlineAt != at {
		p.deadlineAt = at
		p.deadlineTimer = p.eng.Reschedule(p.deadlineTimer, at-p.eng.Now(), "rpc-timeouts", p.deadlineFn)
	}
}

// expireDeadlines is the timer callback: it times out every still-pending
// call whose deadline has passed and re-arms for the next live deadline. It
// assumes nothing about why it ran: with nothing due it only re-establishes
// the invariant.
func (p *Peer) expireDeadlines() {
	// Expiries are rare (a measurement run never times out), so the
	// collection slice is allocated on demand.
	type expiry struct {
		done    func(result any, err error)
		method  string
		timeout time.Duration
	}
	var expired []expiry
	now := p.eng.Now()
	for len(p.deadlines) > 0 && p.deadlines[0].at <= now {
		e := p.deadlinePop()
		if call, ok := p.pending[e.id]; ok {
			delete(p.pending, e.id)
			expired = append(expired, expiry{done: call.done, method: call.method, timeout: call.timeout})
			p.freeCall(call)
		}
	}
	p.retime()
	for _, e := range expired {
		e.done(nil, fmt.Errorf("%w: %s after %v", ErrTimeout, e.method, e.timeout))
	}
}

// deadlinePush / deadlinePop maintain the (at, id) min-heap.
func (p *Peer) deadlinePush(e deadlineEntry) {
	p.deadlines = append(p.deadlines, e)
	i := len(p.deadlines) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(p.deadlines[i], p.deadlines[parent]) {
			break
		}
		p.deadlines[i], p.deadlines[parent] = p.deadlines[parent], p.deadlines[i]
		i = parent
	}
}

func (p *Peer) deadlinePop() deadlineEntry {
	h := p.deadlines
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	p.deadlines = h[:last]
	h = p.deadlines
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && entryLess(h[l], h[min]) {
			min = l
		}
		if r < len(h) && entryLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// entryLess orders heap entries by deadline, ties by issue order, so
// simultaneous expiries fire their callbacks deterministically.
func entryLess(a, b deadlineEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

// resolve completes the pending call for a response.
func (p *Peer) resolve(id uint64, result any, errMsg string) {
	call, ok := p.pending[id]
	if !ok {
		return // response to a timed-out or unknown call
	}
	delete(p.pending, id)
	done, method := call.done, call.method
	// Recycle before running done: the record is out of the map, so even a
	// duplicate reply for this id can no longer reach it, and done itself
	// may issue a new call that reuses it.
	p.freeCall(call)
	p.settleDeadline(id)
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
// failure callbacks may draw from a seeded rng (the manager's retry jitter),
// so their order must not be the map's.
func (p *Peer) failAll() {
	if p.closed {
		return
	}
	p.closed = true
	pending := p.pending
	p.pending = make(map[uint64]*pendingCall)
	p.deadlines = nil
	p.deadlineTimer.Cancel()
	for _, id := range slices.Sorted(maps.Keys(pending)) {
		pending[id].done(nil, ErrClosed)
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
	call.method, call.done, call.timeout = method, done, timeout
	p.pending[id] = call
	if timeout > 0 {
		p.armDeadline(id, p.eng.Now()+timeout)
	}

	if err := p.conn.SendMsg(Msg{ID: id, Method: method, Params: params}); err != nil {
		// A conn that closed inside SendMsg has failed the call already.
		if c, still := p.pending[id]; still {
			delete(p.pending, id)
			p.freeCall(c)
			p.settleDeadline(id)
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
