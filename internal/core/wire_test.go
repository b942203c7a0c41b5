package core

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/container"
	"freeride/internal/freerpc"
	"freeride/internal/model"
	"freeride/internal/sidetask"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// wireRig is one Peer on a Wire over a FramePipe end, so the peer reads and
// writes JSON frames, with the other end held raw by the test: request lines
// go in as written, response lines come out as the bytes a previous build's
// daemon would read. The engine is virtual and stepped by the test, so every
// frame is deterministic.
type wireRig struct {
	t     *testing.T
	eng   *simtime.Virtual
	raw   freerpc.FrameConn
	lines []string
}

func newWireRig(t *testing.T, eng *simtime.Virtual, mux *freerpc.Mux) (*wireRig, *freerpc.Peer) {
	t.Helper()
	raw, served := freerpc.FramePipe(eng, 0)
	peer := freerpc.NewPeer(eng, freerpc.Wire(served), mux)
	r := &wireRig{t: t, eng: eng, raw: raw}
	raw.SetRecvHandler(func(frame []byte) { r.lines = append(r.lines, string(frame)) })
	return r, peer
}

// wireEventLimit bounds the events one step of a wire script may take; a
// script that needs more is taken for a hang.
const wireEventLimit = 1 << 20

// stepUntil steps the engine until done holds, failing when the engine runs
// dry first or the event limit is reached.
func (r *wireRig) stepUntil(what string, done func() bool) {
	r.t.Helper()
	for n := 0; !done(); n++ {
		if n == wireEventLimit || !r.eng.Step() {
			r.t.Fatalf("%s not reached after %d events", what, n)
		}
	}
}

// next steps the engine until the peer has written one line.
func (r *wireRig) next() string {
	r.t.Helper()
	r.stepUntil("a frame", func() bool { return len(r.lines) > 0 })
	l := r.lines[0]
	r.lines = r.lines[1:]
	return l
}

// send writes one line to the peer.
func (r *wireRig) send(line string) {
	r.t.Helper()
	if err := r.raw.Send([]byte(line)); err != nil {
		r.t.Fatal(err)
	}
}

// call writes one request line and returns the response line.
func (r *wireRig) call(req string) string {
	r.t.Helper()
	r.send(req)
	return r.next()
}

// wireStep is one call of the golden wire script: the request line, the
// response line it must get, and how long the engine runs after it.
type wireStep struct {
	name, req, want string
	then            time.Duration
	crashFirst      bool // the worker crashes before the request
}

// goldenWireSteps is TestWireFramesGolden's script, and the seed corpus of
// FuzzWorkerFrames.
func goldenWireSteps(tb testing.TB) []wireStep {
	resnet18, err := json.Marshal(model.ResNet18)
	if err != nil {
		tb.Fatal(err)
	}
	return []wireStep{
		{name: "Worker.Ping, no task",
			req:  `{"id":1,"method":"Worker.Ping"}`,
			want: `{"id":1,"result":{"name":"worker0"}}`},
		{name: "Worker.Create",
			req:  `{"id":2,"method":"Worker.Create","params":{"spec":{"name":"t0","profile":` + string(resnet18) + `,"mode":1,"workScale":0,"seed":7},"memLimitBytes":4294967296,"incarnation":3}}`,
			want: `{"id":2,"result":{"name":"t0","state":1,"exited":false,"steps":0,"kernelTimeNs":0,"hostTimeNs":0,"insuffNs":0}}`,
			then: 2 * time.Second}, // CreateSideTask
		{name: "Worker.Init",
			req:  `{"id":3,"method":"Worker.Init","params":{"name":"t0"}}`,
			want: `{"id":3,"result":{"name":"t0","state":2,"exited":false,"incarnation":3,"steps":0,"kernelTimeNs":0,"hostTimeNs":0,"insuffNs":0}}`,
			then: time.Second}, // InitSideTask
		{name: "Worker.Ping",
			req:  `{"id":4,"method":"Worker.Ping"}`,
			want: `{"id":4,"result":{"name":"worker0","tasks":[{"name":"t0","state":3,"exited":false,"incarnation":3,"steps":0,"kernelTimeNs":0,"hostTimeNs":0,"insuffNs":0}]}}`},
		// A start into a bubble that has already ended: the task turns
		// RUNNING and, with no time for a step, waits — its counters stay put
		// however often the test steps the engine.
		{name: "Worker.Start",
			req:  `{"id":5,"method":"Worker.Start","params":{"name":"t0","bubbleEndNs":1}}`,
			want: `{"id":5,"result":{"name":"t0","state":4,"exited":false,"started":true,"incarnation":3,"steps":0,"kernelTimeNs":0,"hostTimeNs":0,"insuffNs":0}}`},
		{name: "Worker.Pause",
			req:  `{"id":6,"method":"Worker.Pause","params":{"name":"t0"}}`,
			want: `{"id":6,"result":{"name":"t0","state":3,"exited":false,"incarnation":3,"steps":0,"kernelTimeNs":0,"hostTimeNs":0,"insuffNs":0}}`},
		{name: "Worker.Start, unknown task",
			req:  `{"id":7,"method":"Worker.Start","params":{"name":"nope","bubbleEndNs":1}}`,
			want: `{"id":7,"error":"worker worker0: unknown task \"nope\""}`},
		{name: "Worker.Ping, crashed",
			req:        `{"id":8,"method":"Worker.Ping"}`,
			want:       `{"id":8,"error":"worker worker0: crashed"}`,
			crashFirst: true},
	}
}

// newWireWorker is worker0 on a fresh virtual engine, its handler table
// served to a wire rig.
func newWireWorker(t *testing.T) (*wireRig, *Worker) {
	eng := simtime.NewVirtual()
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu0", MemBytes: model.ServerI.GPUMemBytes})
	w := NewWorker(eng, dev, container.NewRuntime(simproc.NewRuntime(eng)), WorkerConfig{Name: "worker0"})
	wmux := freerpc.NewMux()
	w.RegisterOn(wmux)
	wire, _ := newWireRig(t, eng, wmux)
	return wire, w
}

// TestWireFramesGolden pins the JSON frames of the calls this repository's
// daemons exchange every bubble cycle and every ping, byte for byte as the
// previous build wrote them: pooled replies and params must be
// indistinguishable from plain ones on the wire, or a freeride-managerd and
// a freeride-workerd of different builds stop interoperating.
func TestWireFramesGolden(t *testing.T) {
	wire, w := newWireWorker(t)
	for _, step := range goldenWireSteps(t) {
		if step.crashFirst {
			w.Crash()
		}
		if got := wire.call(step.req); got != step.want {
			t.Fatalf("%s:\n got %s\nwant %s", step.name, got, step.want)
		}
		if step.then > 0 {
			wire.eng.RunFor(step.then)
		}
	}
}

// decodeFrame decodes line as freerpc's wire envelope, as a peer does: it
// reports whether the line decodes, its id, and whether it is a request (a
// method and a non-zero id).
func decodeFrame(line string) (id uint64, request, decoded bool) {
	var env struct {
		ID     uint64          `json:"id,omitempty"`
		Method string          `json:"method,omitempty"`
		Params json.RawMessage `json:"params,omitempty"`
		Result json.RawMessage `json:"result,omitempty"`
		Error  string          `json:"error,omitempty"`
	}
	if json.Unmarshal([]byte(line), &env) != nil {
		return 0, false, false
	}
	return env.ID, env.Method != "" && env.ID != 0, true
}

// FuzzWorkerFrames feeds one arbitrary line into a worker's handler table,
// as a frame from a manager daemon arrives at a node daemon: nothing may
// panic, and a request (a frame that decodes with a method and a non-zero
// id) gets exactly one response line, anything else none. A Worker.Ping
// written behind the line marks where its responses end.
func FuzzWorkerFrames(f *testing.F) {
	for _, step := range goldenWireSteps(f) {
		f.Add(step.req)
	}
	const markID = math.MaxUint64
	mark := fmt.Sprintf(`{"id":%d,"method":"Worker.Ping"}`, uint64(markID))
	f.Fuzz(func(t *testing.T, line string) {
		id, request, decoded := decodeFrame(line)
		if decoded && id == markID {
			t.Skip("a frame the mark would be confused with")
		}
		want := 0
		if request {
			want = 1
		}
		wire, w := newWireWorker(t)
		defer w.Crash() // kills what the line created, so no process outlives the input
		wire.send(line)
		wire.send(mark)
		got := 0
		for !strings.HasPrefix(wire.next(), fmt.Sprintf(`{"id":%d,`, uint64(markID))) {
			got++
		}
		if got != want {
			t.Fatalf("%q: %d response lines, want %d", line, got, want)
		}
	})
}

// newWireManager is a started manager on a fresh virtual engine, with one
// real worker on stage 0 linked over MemPipe and the task t0 deployed and
// initialised on it; the manager's handler table is served to a wire rig.
func newWireManager(t *testing.T) (*wireRig, *Manager, *Worker) {
	t.Helper()
	eng := simtime.NewVirtual()
	mgr := NewManager(eng, ManagerOptions{Tick: time.Millisecond, Replan: &bubble.DetectorConfig{}})
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu0", MemBytes: model.ServerI.GPUMemBytes})
	w := NewWorker(eng, dev, container.NewRuntime(simproc.NewRuntime(eng)), WorkerConfig{Name: "worker0"})
	wmux := freerpc.NewMux()
	w.RegisterOn(wmux)
	mgrEnd, wEnd := freerpc.MemPipe(eng, 200*time.Microsecond)
	wPeer := freerpc.NewPeer(eng, wEnd, wmux)
	w.SetNotify(func(method string, params any) { _ = wPeer.Notify(method, params) })
	mgr.AddWorker("worker0", 0, 22*model.GiB, freerpc.NewPeer(eng, mgrEnd, mgr.Mux()))
	mgr.Start()
	if err := mgr.Submit(spec("t0", model.ResNet18, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(4 * time.Second) // CreateSideTask and InitSideTask
	wire, _ := newWireRig(t, eng, mgr.Mux())
	return wire, mgr, w
}

// managerSeedFrames are well-formed frames of every Manager.* method, as the
// node daemon and an operator send them 4 s into a newWireManager session.
func managerSeedFrames(tb testing.TB) []string {
	resnet18, err := json.Marshal(model.ResNet18)
	if err != nil {
		tb.Fatal(err)
	}
	return []string{
		`{"method":"Manager.AddBubble","params":{"stage":0,"type":2,"startNs":4100000000,"durNs":300000000,"memAvail":7516192768}}`,
		`{"id":1,"method":"Manager.Submit","params":{"name":"t1","profile":` + string(resnet18) + `,"mode":2,"workScale":0,"seed":7}}`,
		`{"method":"Manager.TaskState","params":{"name":"t0","state":4,"exited":false,"steps":3,"kernelTimeNs":1000,"hostTimeNs":1000,"insuffNs":0}}`,
		`{"method":"Manager.TaskExited","params":{"name":"t0","state":5,"exited":true,"exitErr":"boom","steps":0,"kernelTimeNs":0,"hostTimeNs":0,"insuffNs":0}}`,
	}
}

// FuzzManagerFrames feeds one arbitrary line into a manager's handler
// table, as a frame from a node daemon or an operator arrives at the manager
// daemon, with a real worker and a deployed task behind it. A request to an
// unknown method written behind the line marks where its responses end; the
// session then runs on for a second of virtual time, stops, and drains.
// Nothing may panic or hang, and a request (a frame that decodes with a
// method and a non-zero id) gets exactly one response line, anything else
// none.
func FuzzManagerFrames(f *testing.F) {
	for _, frame := range managerSeedFrames(f) {
		f.Add(frame)
	}
	const markID = math.MaxUint64
	mark := fmt.Sprintf(`{"id":%d,"method":"Manager.Mark"}`, uint64(markID))
	markReply := fmt.Sprintf(`{"id":%d,"error":"unknown method \"Manager.Mark\""}`, uint64(markID))
	f.Fuzz(func(t *testing.T, line string) {
		id, request, decoded := decodeFrame(line)
		if decoded && id == markID {
			t.Skip("a frame the mark would be confused with")
		}
		want := 0
		if request {
			want = 1
		}
		wire, mgr, w := newWireManager(t)
		wire.send(line)
		wire.send(mark)
		got := 0
		for l := wire.next(); l != markReply; l = wire.next() {
			got++
		}
		horizon := false
		wire.eng.Schedule(time.Second, "horizon", func() { horizon = true })
		wire.stepUntil("the horizon", func() bool { return horizon })
		mgr.Stop()
		w.Crash()
		wire.stepUntil("an empty queue", func() bool { return wire.eng.Pending() == 0 })
		if got += len(wire.lines); got != want {
			t.Fatalf("%q: %d response lines, want %d", line, got, want)
		}
	})
}

// TestBubbleReportWireFrame pins the frame a pooled bubble report writes.
func TestBubbleReportWireFrame(t *testing.T) {
	eng := simtime.NewVirtual()
	wire, peer := newWireRig(t, eng, nil)
	var reports freerpc.Pool[BubbleDTO]
	d := reports.Get()
	d.V = ToBubbleDTO(bubble.Bubble{
		Stage: 2, Type: bubble.TypeB, Start: 1500 * time.Millisecond,
		Duration: 20 * time.Millisecond, MemAvailable: 7 << 30,
	})
	if err := peer.Notify("Manager.AddBubble", d); err != nil {
		t.Fatal(err)
	}
	want := `{"method":"Manager.AddBubble","params":{"stage":2,"type":2,"startNs":1500000000,"durNs":20000000,"memAvail":7516192768}}`
	if got := wire.next(); got != want {
		t.Fatalf("Manager.AddBubble:\n got %s\nwant %s", got, want)
	}
	if again := reports.Get(); again != d {
		t.Error("the report was not recycled after marshalling")
	}
}
