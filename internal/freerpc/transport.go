// Package freerpc is FreeRide's RPC layer — the stdlib substitute for the
// paper's gRPC (§4.6). The pipeline training system, the side task manager
// and the side task workers talk through Peers, and a Peer has one message
// path: it sends and receives typed Msg values over a Conn. Two Conns carry
// them:
//
//   - MemPipe: an in-memory pipe whose delivery is scheduled on the engine
//     with a configurable one-way latency. Params structs (bubble DTOs,
//     task specs, worker stats) and results cross as the values the sender
//     built, with no JSON work; who may reuse such a value, and when, is the
//     ownership rule stated on Msg. Every simulated session runs on it.
//   - Wire: the one codec. It turns each Msg into a newline-free JSON frame
//     on any FrameConn and back, so a handler registered with HandleFunc
//     receives raw JSON and unmarshals it into its own params type. Its
//     frames run over a socket (NewNetConn: the live `freeride-sim manager`
//     and `freeride-sim worker` daemons, on an engine a simtime.Wall paces)
//     or over a FramePipe, the frame face of a MemPipe, which carries them on
//     the virtual clock with the MemPipe's delivery, joins and fault windows —
//     so a whole simulated session can run through the real codec,
//     deterministically.
//
// A socket's read pump only hands each frame to simtime.Wall.Do; every other
// use of a peer, its conn and its Mux runs in the engine's callbacks or
// inside Do too (Serve builds each accepted peer there), so none of them
// takes a lock. Sockets aside, a live daemon's peers are a simulated
// session's: one engine dispatches both.
//
// The simulator pays only for what the paper's system pays for: the
// modelled RPC latency (part of the "FreeRide runtime" in the Fig. 9
// bubble-time breakdown) is the same on either Conn, while the serialization
// cost, which the paper's gRPC substitute never modelled, is off the
// simulation hot path. Deliveries due at the same instant share one engine
// event (simtime.Virtual's ScheduleJoin), which changes how many events the
// engine dispatches, never the order in which the deliveries run.
package freerpc

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"time"

	"freeride/internal/simtime"
)

// Errors returned by the transport and peers.
var (
	ErrClosed  = errors.New("freerpc: connection closed")
	ErrTimeout = errors.New("freerpc: call timed out")
)

// Conn is a bidirectional message transport, what a Peer speaks. Handlers
// are always invoked from engine-callback context.
type Conn interface {
	// SendMsg transmits one message asynchronously.
	SendMsg(m Msg) error
	// SetMsgHandler installs the receiver. Must be set before the first
	// message arrives; calls are serialized by the engine.
	SetMsgHandler(fn func(m Msg))
	// Close tears the connection down; the peer's handler receives no
	// further messages and its OnClose fires.
	Close() error
	// OnClose registers a callback fired once when the connection closes
	// (locally or remotely), from engine-callback context.
	OnClose(fn func())
}

// FrameConn is a bidirectional byte-frame transport, what a Wire runs on.
type FrameConn interface {
	// Send transmits one frame asynchronously.
	Send(frame []byte) error
	// SetRecvHandler installs the frame receiver, with SetMsgHandler's rules.
	SetRecvHandler(fn func(frame []byte))
	// Close and OnClose are Conn's.
	Close() error
	OnClose(fn func())
}

// memConn is one end of an in-memory pipe: messages cross as the values
// the sender built.
type memConn struct {
	eng     *simtime.Virtual
	latency time.Duration

	peer    *memConn
	recvMsg func(Msg)
	closed  bool
	onClose []func()
	// Fault-injection state (see LinkFault). faulty is set once when a
	// LinkFault is installed; the zero values behind it inject nothing, so
	// an armed-but-idle fault plane takes one predictable branch and a
	// plain conn pays a single bool test.
	faulty     bool
	dropUntil  time.Duration
	delayUntil time.Duration
	extraDelay time.Duration
	dropped    uint64
	// msgPool recycles typed-message delivery events (the carried Msg plus
	// the pre-built engine callback), so SendMsg schedules without
	// allocating a closure per message — the control plane's hottest
	// allocation site after the per-call bookkeeping.
	msgPool []*msgEvent
}

// msgEvent is one in-flight typed message: pooled on the sending end, its
// fire callback is built once and reused for every delivery.
type msgEvent struct {
	conn *memConn // sending end; delivery goes to conn.peer
	m    Msg
	fire func()
}

// deliver hands the message to the receiving end and recycles the event.
func (e *msgEvent) deliver() {
	c := e.conn
	m := e.m
	e.m = Msg{}
	// Recycle before invoking the receiver: the handler may send again
	// (request → response) and reuse this very event.
	c.msgPool = append(c.msgPool, e)
	if peer := c.peer; !peer.closed && peer.recvMsg != nil {
		peer.recvMsg(m)
	}
}

// MemPipe returns a connected pair of in-memory Conns with the given one-way
// delivery latency.
func MemPipe(eng *simtime.Virtual, latency time.Duration) (Conn, Conn) {
	a := &memConn{eng: eng, latency: latency}
	b := &memConn{eng: eng, latency: latency}
	a.peer, b.peer = b, a
	return a, b
}

// SendMsg delivers a message to the peer after one latency. Delivery events
// come from the sender's pool, and a delivery joins the other deliveries due
// at its instant in one engine event, so steady-state messaging allocates
// nothing and bursts (a ping to every worker, their replies) cost one event
// each.
func (c *memConn) SendMsg(m Msg) error {
	if c.closed {
		return ErrClosed
	}
	lat := c.latency
	if c.faulty {
		var dropped bool
		if lat, dropped = c.faultLatency(lat); dropped {
			return nil
		}
	}
	var e *msgEvent
	if n := len(c.msgPool); n > 0 {
		e = c.msgPool[n-1]
		c.msgPool[n-1] = nil
		c.msgPool = c.msgPool[:n-1]
	} else {
		e = &msgEvent{conn: c}
		e.fire = e.deliver
	}
	e.m = m

	c.eng.ScheduleJoin(simtime.OwnerRPC, lat, e.fire)
	return nil
}

// faultLatency applies the injected link fault to one outgoing message:
// inside a drop window the message is silently discarded (the sender sees
// success — exactly a lost frame), inside a delay window the one-way latency
// is inflated. The caller has checked c.faulty.
func (c *memConn) faultLatency(lat time.Duration) (time.Duration, bool) {
	now := c.eng.Now()
	if now < c.dropUntil {
		c.dropped++
		return lat, true
	}
	if now < c.delayUntil {
		lat += c.extraDelay
	}
	return lat, false
}

func (c *memConn) SetMsgHandler(fn func(Msg)) {
	c.recvMsg = fn
}

func (c *memConn) OnClose(fn func()) {
	if c.closed {
		fn()
		return
	}
	c.onClose = append(c.onClose, fn)
}

func (c *memConn) Close() error {
	c.closeLocal()
	// Propagate to the peer after one latency (FIN in flight).
	peer := c.peer
	c.eng.ScheduleDetachedBy(simtime.OwnerRPC, c.latency, peer.closeLocal)
	return nil
}

func (c *memConn) closeLocal() {
	if c.closed {
		return
	}
	c.closed = true
	hooks := c.onClose
	c.onClose = nil
	for _, h := range hooks {
		h()
	}
}

// FramePipe returns a connected pair of in-memory FrameConns with the given
// one-way delivery latency: the frame face of a MemPipe. A frame is copied
// and crosses as a Msg, on the MemPipe's one delivery path, so a pair of
// Wires on it delivers when a MemPipe would, and InjectFaults takes either
// end, or a Wire on one.
func FramePipe(eng *simtime.Virtual, latency time.Duration) (FrameConn, FrameConn) {
	a, b := MemPipe(eng, latency)
	return frameEnd{a.(*memConn)}, frameEnd{b.(*memConn)}
}

// frameEnd is one end of a FramePipe.
type frameEnd struct{ *memConn }

func (f frameEnd) Send(frame []byte) error {
	// Copy: the sender may reuse the buffer.
	return f.SendMsg(Msg{Params: bytes.Clone(frame)})
}

func (f frameEnd) SetRecvHandler(fn func([]byte)) {
	f.SetMsgHandler(func(m Msg) {
		frame, _ := m.Params.([]byte)
		fn(frame)
	})
}

// netConn adapts a real net.Conn to the FrameConn interface with
// newline-delimited frames. The read pump delivers each frame, and the EOF,
// inside the Wall's Do, so handlers keep the single-threaded callback
// guarantee; the pump touches nothing else, so every other field is the
// engine's.
type netConn struct {
	eng     *simtime.Wall
	nc      net.Conn
	recv    func([]byte)
	closed  bool
	onClose []func()
	started bool
}

// NewNetConn wraps nc. The read loop starts at the first SetRecvHandler.
// Its read pump is a goroutine of its own, so the conn takes the Wall that
// paces the engine its peer runs on: the pump enters that engine through
// eng.Do.
func NewNetConn(eng *simtime.Wall, nc net.Conn) FrameConn {
	return &netConn{eng: eng, nc: nc}
}

func (c *netConn) Send(frame []byte) error {
	if bytes.IndexByte(frame, '\n') >= 0 {
		return errors.New("freerpc: frame contains newline")
	}
	if c.closed {
		return ErrClosed
	}
	if _, err := c.nc.Write(append(frame, '\n')); err != nil {
		return err
	}
	return nil
}

func (c *netConn) SetRecvHandler(fn func([]byte)) {
	c.recv = fn
	if !c.started {
		c.started = true
		go c.readLoop()
	}
}

func (c *netConn) readLoop() {
	scanner := bufio.NewScanner(c.nc)
	scanner.Buffer(make([]byte, 64<<10), 16<<20)
	for scanner.Scan() {
		line := bytes.Clone(scanner.Bytes())
		c.eng.Do(func() {
			if !c.closed && c.recv != nil {
				c.recv(line)
			}
		})
	}
	c.eng.Do(c.closeLocal)
}

func (c *netConn) OnClose(fn func()) {
	if c.closed {
		fn()
		return
	}
	c.onClose = append(c.onClose, fn)
}

func (c *netConn) Close() error {
	c.closeLocal()
	return nil
}

func (c *netConn) closeLocal() {
	if c.closed {
		return
	}
	c.closed = true
	hooks := c.onClose
	c.onClose = nil
	_ = c.nc.Close()
	for _, h := range hooks {
		h()
	}
}
