package core

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/container"
	"freeride/internal/freerpc"
	"freeride/internal/model"
	"freeride/internal/sidetask"
	"freeride/internal/simfault"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// tapConn wraps one end of a MemPipe and checks freerpc's ownership rule
// from the outside: every payload is deep-copied (as JSON) when it is sent
// and compared when it is delivered. A pooled value that somebody recycled
// and refilled while the message was still in flight — behind a delay
// window, overtaken, after its call timed out — arrives different from what
// was sent.
type tapConn struct {
	freerpc.Conn
	t *testing.T
}

// tapped is a payload in flight, carrying its send-time snapshot.
type tapped struct {
	v    any
	snap string
}

func snapshot(t *testing.T, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("tap: %v", err)
	}
	return string(b)
}

func (c *tapConn) wrap(v any) any {
	if v == nil {
		return nil
	}
	return tapped{v: v, snap: snapshot(c.t, v)}
}

func (c *tapConn) unwrap(m freerpc.Msg, v any) any {
	if v == nil {
		return nil
	}
	tp := v.(tapped)
	if now := snapshot(c.t, tp.v); now != tp.snap {
		c.t.Errorf("payload of message id=%d method=%q rewritten in flight:\n sent      %s\n delivered %s",
			m.ID, m.Method, tp.snap, now)
	}
	return tp.v
}

func (c *tapConn) SendMsg(m freerpc.Msg) error {
	m.Params, m.Result = c.wrap(m.Params), c.wrap(m.Result)
	return c.Conn.SendMsg(m)
}

func (c *tapConn) SetMsgHandler(fn func(freerpc.Msg)) {
	c.Conn.SetMsgHandler(func(m freerpc.Msg) {
		m.Params, m.Result = c.unwrap(m, m.Params), c.unwrap(m, m.Result)
		fn(m)
	})
}

func tapPipe(t *testing.T, eng *simtime.Virtual, latency time.Duration) (a, b freerpc.Conn, faults *freerpc.LinkFault) {
	x, y := freerpc.MemPipe(eng, latency)
	return &tapConn{Conn: x, t: t}, &tapConn{Conn: y, t: t},
		freerpc.InjectFaults(x)
}

// tapRig is one manager and one worker whose link and bubble-report link are
// both tapped, with a hand-built fault schedule on the worker link. t0 is
// the instant the deployed task is PAUSED and the scenario starts; it falls
// on a ping instant. starts records the bubble deadline of every
// Worker.Start the worker receives, relative to t0.
type tapRig struct {
	t      *testing.T
	eng    *simtime.Virtual
	mgr    *Manager
	worker *Worker
	inj    *simfault.Injector
	report func(b bubble.Bubble)
	starts []time.Duration
}

const (
	tapLease      = 600 * time.Millisecond
	tapRPCTimeout = 50 * time.Millisecond
	tapLatency    = 200 * time.Microsecond
	tapT0         = 17 * (tapLease / 2) // 5.1s: create + init done, and a ping instant
)

func newTapRig(t *testing.T, faults []simfault.Event) *tapRig {
	t.Helper()
	eng := simtime.NewVirtual()
	r := &tapRig{t: t, eng: eng}
	r.mgr = NewManager(eng, ManagerOptions{
		Tick: time.Millisecond, Lease: tapLease, RPCTimeout: tapRPCTimeout,
		MaxRestarts: 1, Seed: 1,
	})
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu0", MemBytes: model.ServerI.GPUMemBytes})
	r.worker = NewWorker(eng, dev, container.NewRuntime(simproc.NewRuntime(eng)), WorkerConfig{Name: "worker0"})
	wmux := freerpc.NewMux()
	r.worker.RegisterOn(wmux)
	// Count the starts in front of the worker's own handler.
	freerpc.HandleFunc(wmux, "Worker.Start", func(a startArgs) (any, error) {
		r.starts = append(r.starts, time.Duration(a.BubbleEndNs)-tapT0)
		return r.worker.handleStart(a)
	})
	mgrEnd, wEnd, lf := tapPipe(t, eng, tapLatency)
	mgrPeer := freerpc.NewPeer(eng, mgrEnd, r.mgr.Mux())
	wPeer := freerpc.NewPeer(eng, wEnd, wmux)
	r.worker.SetNotify(func(method string, params any) { _ = wPeer.Notify(method, params) })
	r.mgr.AddWorker("worker0", 0, 22*model.GiB, mgrPeer)

	r.inj = simfault.NewInjector(eng, &simfault.Schedule{Events: faults})
	r.inj.Bind(0, simfault.Hooks{
		SeverLink: mgrPeer.Close,
		DropRPC:   lf.DropFor,
		DelayRPC:  lf.DelayFor,
	})
	r.inj.Start()

	pipeEnd, sinkEnd, _ := tapPipe(t, eng, tapLatency)
	pipePeer := freerpc.NewPeer(eng, pipeEnd, nil)
	freerpc.NewPeer(eng, sinkEnd, r.mgr.Mux())
	var reports freerpc.Pool[bubble.Bubble]
	r.report = func(b bubble.Bubble) {
		d := reports.Get()
		d.V = b
		if err := pipePeer.Notify("Manager.AddBubble", d); err != nil {
			t.Errorf("report: %v", err)
		}
	}

	if err := r.mgr.Submit(spec("t0", model.ResNet18, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.Start()
	return r
}

// bubbleAt schedules the report of the bubble [t0+start, t0+end) for the
// instant t0+at.
func (r *tapRig) bubbleAt(at, start, end time.Duration) {
	r.eng.Schedule(tapT0+at-r.eng.Now(), "report", func() {
		r.report(bubble.Bubble{Stage: 0, Type: bubble.TypeA, Start: tapT0 + start, Duration: end - start})
	})
}

// runTo runs the engine to t0+at.
func (r *tapRig) runTo(at time.Duration) { r.eng.RunFor(tapT0 + at - r.eng.Now()) }

func (r *tapRig) wantStarts(want ...time.Duration) {
	r.t.Helper()
	if !reflect.DeepEqual(r.starts, want) {
		r.t.Errorf("Worker.Start deadlines seen by the worker (relative to t0) = %v, want %v", r.starts, want)
	}
}

const ms = time.Millisecond

// TestOwnershipUnderAdversarialLinkTiming drives the pooled control plane
// through a hand-built fault schedule: a delay window whose extra latency is
// above both the ping timeout (Lease/2) and RPCTimeout and which ends while
// its messages are still in flight, so later messages overtake earlier ones
// and calls expire with their request undelivered; a drop window; a sever
// with a call in flight. The tap must see every payload arrive as sent, and
// the worker must see exactly the starts the timeline implies — the late
// one with the deadline it was sent with.
func TestOwnershipUnderAdversarialLinkTiming(t *testing.T) {
	r := newTapRig(t, []simfault.Event{
		{At: tapT0 - 1*ms, Kind: simfault.KindDelayRPC, Window: 61 * ms, Extra: 350 * ms},
		{At: tapT0 + 455*ms, Kind: simfault.KindDropRPC, Window: 30 * ms},
		{At: tapT0 + 690*ms + tapLatency/2, Kind: simfault.KindSeverLink},
	})
	// Inside the delay window: the ping of t0 and the start of a bubble
	// shorter than the delay. Both calls expire (at t0+300ms and t0+60ms)
	// with the request still in flight; both requests land after t0+350ms.
	r.bubbleAt(2*ms, 10*ms, 40*ms)
	// After the window: this start overtakes the delayed one, and the task
	// is RUNNING when that one lands (a refresh with a stale deadline).
	r.bubbleAt(62*ms, 70*ms, 450*ms)
	// Inside the drop window: a start that never arrives.
	r.bubbleAt(452*ms, 460*ms, 480*ms)
	// A quiet cycle, then a start in flight when the link is severed.
	r.bubbleAt(512*ms, 520*ms, 560*ms)
	r.bubbleAt(682*ms, 690*ms, 760*ms)

	r.runTo(0)
	if tv := taskView(t, r.mgr, "t0"); tv.State != sidetask.StatePaused {
		t.Fatalf("task view at t0 = %+v, want PAUSED", tv)
	}
	r.runTo(650 * ms)
	if st := r.mgr.Stats(); st.WorkersLost != 0 || st.BubblesServed != 2 {
		t.Errorf("before the sever: WorkersLost = %d, BubblesServed = %d, want 0 and 2", st.WorkersLost, st.BubblesServed)
	}
	r.runTo(2 * time.Second)
	r.wantStarts(450*ms, 40*ms, 560*ms, 760*ms)
	if st := r.mgr.Stats(); st.WorkersLost != 1 {
		t.Errorf("after the sever: WorkersLost = %d, want 1", st.WorkersLost)
	}
	if got := r.inj.Stats().Total(); got != 3 {
		t.Errorf("%d faults injected, want 3", got)
	}
}

// TestStartsInFlightResolveAgainstTheirBubble keeps three starts of one task
// in flight at once, each for its own bubble (the bubbles are shorter than
// the delay), and lets the first two expire while a later one is the task's
// latest. An expired start must leave the later bubble's dedupe record alone
// — no duplicate start — and its request, landing long after, must still
// carry its own bubble's deadline.
func TestStartsInFlightResolveAgainstTheirBubble(t *testing.T) {
	r := newTapRig(t, []simfault.Event{
		{At: tapT0 - 1*ms, Kind: simfault.KindDelayRPC, Window: 76 * ms, Extra: 120 * ms},
	})
	r.bubbleAt(2*ms, 10*ms, 30*ms)   // start sent t0+10, expires t0+60, lands t0+130
	r.bubbleAt(32*ms, 40*ms, 70*ms)  // start sent t0+40, expires t0+90, lands t0+160
	r.bubbleAt(72*ms, 80*ms, 300*ms) // start sent t0+80 after the window: lands at once
	r.runTo(100 * ms)
	r.wantStarts(300 * ms)
	if st := r.mgr.Stats(); st.BubblesServed != 1 {
		t.Errorf("BubblesServed = %d at t0+100ms, want 1", st.BubblesServed)
	}
	r.runTo(time.Second)
	r.wantStarts(300*ms, 30*ms, 70*ms)
	h, _ := r.worker.Harness("t0")
	if got := h.State(); got != sidetask.StatePaused {
		t.Errorf("task state after the last bubble = %v, want PAUSED", got)
	}
	if st := r.mgr.Stats(); st.WorkersLost != 0 {
		t.Errorf("WorkersLost = %d, want 0", st.WorkersLost)
	}
}
