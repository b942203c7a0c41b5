package freerpc

import (
	"encoding/json"
	"fmt"
)

// envelope is the wire message: requests carry Method, responses don't.
type envelope struct {
	ID     uint64          `json:"id,omitempty"`
	Method string          `json:"method,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// wire is the JSON codec conn: one Msg is one envelope frame on fc.
type wire struct {
	fc   FrameConn
	recv func(Msg)
}

// Wire returns the Conn that carries Msgs as newline-delimited JSON frames
// over fc — the wire protocol of the live daemons, and the only code that
// knows it. Params and results are marshalled on send (a pooled value is
// recycled once marshalled, see Msg) and arrive as json.RawMessage; a frame
// that does not decode is dropped.
func Wire(fc FrameConn) Conn { return &wire{fc: fc} }

// SendMsg marshals m into one frame. Params that do not marshal fail the
// send; a result that does not marshal is answered as an error instead.
func (w *wire) SendMsg(m Msg) error {
	env := envelope{ID: m.ID, Method: m.Method, Error: m.Err}
	if m.Params != nil {
		raw, err := json.Marshal(m.Params)
		recycle(m.Params)
		if err != nil {
			return fmt.Errorf("freerpc: marshal params: %w", err)
		}
		env.Params = raw
	}
	if m.Result != nil {
		raw, err := json.Marshal(m.Result)
		recycle(m.Result)
		if err != nil {
			env.Error = fmt.Sprintf("marshal result: %v", err)
		} else {
			env.Result = raw
		}
	}
	frame, err := json.Marshal(env)
	if err != nil {
		return err
	}
	return w.fc.Send(frame)
}

// SetMsgHandler starts frame delivery (a socket's read pump starts here).
func (w *wire) SetMsgHandler(fn func(Msg)) {
	w.recv = fn
	w.fc.SetRecvHandler(w.onFrame)
}

// onFrame decodes one frame; absent params or result arrive as nil.
func (w *wire) onFrame(frame []byte) {
	var env envelope
	if err := json.Unmarshal(frame, &env); err != nil {
		return // malformed frame: drop
	}
	m := Msg{ID: env.ID, Method: env.Method, Err: env.Error}
	if len(env.Params) > 0 {
		m.Params = env.Params
	}
	if len(env.Result) > 0 {
		m.Result = env.Result
	}
	w.recv(m)
}

func (w *wire) Close() error      { return w.fc.Close() }
func (w *wire) OnClose(fn func()) { w.fc.OnClose(fn) }
