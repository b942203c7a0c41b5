package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/container"
	"freeride/internal/freerpc"
	"freeride/internal/model"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// wireRig is one Peer over a net.Pipe NetConn with the other end held raw by
// the test: request lines go in as written, response lines come out as the
// bytes a previous build's daemon would read. The engine is virtual and
// stepped by the test, so every frame is deterministic.
type wireRig struct {
	t     *testing.T
	eng   *simtime.Virtual
	raw   net.Conn
	lines chan string
}

func newWireRig(t *testing.T, eng *simtime.Virtual, mux *freerpc.Mux) (*wireRig, *freerpc.Peer) {
	t.Helper()
	raw, served := net.Pipe()
	t.Cleanup(func() { _ = raw.Close() })
	peer := freerpc.NewPeer(eng, freerpc.NewNetConn(eng, served), mux)
	r := &wireRig{t: t, eng: eng, raw: raw, lines: make(chan string, 16)}
	go func() {
		defer close(r.lines)
		sc := bufio.NewScanner(raw)
		for sc.Scan() {
			r.lines <- sc.Text()
		}
	}()
	return r, peer
}

// next steps the engine until the peer has written one line.
func (r *wireRig) next() string {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case l, ok := <-r.lines:
			if !ok {
				r.t.Fatal("wire closed")
			}
			return l
		default:
		}
		if !r.eng.Step() {
			runtime.Gosched()
		}
	}
	r.t.Fatal("no frame within 10s")
	return ""
}

// call writes one request line and returns the response line.
func (r *wireRig) call(req string) string {
	r.t.Helper()
	if _, err := r.raw.Write([]byte(req + "\n")); err != nil {
		r.t.Fatal(err)
	}
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
		var env struct { // freerpc's wire envelope
			ID     uint64          `json:"id,omitempty"`
			Method string          `json:"method,omitempty"`
			Params json.RawMessage `json:"params,omitempty"`
			Result json.RawMessage `json:"result,omitempty"`
			Error  string          `json:"error,omitempty"`
		}
		decoded := json.Unmarshal([]byte(line), &env) == nil
		if strings.ContainsRune(line, '\n') || (decoded && env.ID == markID) {
			t.Skip("not one frame, or one the mark would be confused with")
		}
		want := 0
		if decoded && env.Method != "" && env.ID != 0 {
			want = 1
		}
		wire, w := newWireWorker(t)
		defer w.Crash() // kills what the line created, so no process outlives the input
		if _, err := wire.raw.Write([]byte(line + "\n" + mark + "\n")); err != nil {
			t.Fatal(err)
		}
		got := 0
		for !strings.HasPrefix(wire.next(), fmt.Sprintf(`{"id":%d,`, uint64(markID))) {
			got++
		}
		if got != want {
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
	errc := make(chan error, 1)
	go func() { errc <- peer.Notify("Manager.AddBubble", d) }() // net.Pipe writes block until read
	want := `{"method":"Manager.AddBubble","params":{"stage":2,"type":2,"startNs":1500000000,"durNs":20000000,"memAvail":7516192768}}`
	if got := wire.next(); got != want {
		t.Fatalf("Manager.AddBubble:\n got %s\nwant %s", got, want)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if again := reports.Get(); again != d {
		t.Error("the report was not recycled after marshalling")
	}
}
