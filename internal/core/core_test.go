package core

import (
	"reflect"
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

// rig assembles a manager plus n workers over in-memory RPC, with one
// free-standing GPU per worker (no pipeline; bubbles are scripted).
type rig struct {
	eng     *simtime.Virtual
	procs   *simproc.Runtime
	devices []*simgpu.Device
	workers []*Worker
	mgr     *Manager
}

func newRig(t *testing.T, n int, avail []int64, wcfg WorkerConfig) *rig {
	return newRigOpts(t, n, avail, wcfg, ManagerOptions{Tick: time.Millisecond})
}

func newRigOpts(t *testing.T, n int, avail []int64, wcfg WorkerConfig, mopts ManagerOptions) *rig {
	return newRigDev(t, n, avail, wcfg, mopts, simgpu.DeviceConfig{})
}

// newRigDev is newRigOpts with the device template given (its Name is set
// per worker): the alloc pins run with NoTraces.
func newRigDev(t *testing.T, n int, avail []int64, wcfg WorkerConfig, mopts ManagerOptions, dcfg simgpu.DeviceConfig) *rig {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	mgr := NewManager(eng, mopts)
	r := &rig{eng: eng, procs: procs, mgr: mgr}
	for i := 0; i < n; i++ {
		dcfg.Name = "gpu" + string(rune('0'+i))
		dev := simgpu.NewDevice(eng, dcfg)
		ctrs := container.NewRuntime(procs)
		cfg := wcfg
		cfg.Name = "worker" + string(rune('0'+i))
		w := NewWorker(eng, dev, ctrs, cfg)
		wmux := freerpc.NewMux()
		w.RegisterOn(wmux)
		mgrSide, workerSide := freerpc.MemPipe(eng, 200*time.Microsecond)
		mgrPeer := freerpc.NewPeer(eng, mgrSide, mgr.Mux())
		workerPeer := freerpc.NewPeer(eng, workerSide, wmux)
		w.SetNotify(func(method string, params any) {
			_ = workerPeer.Notify(method, params)
		})
		mgr.AddWorker(cfg.Name, i, avail[i], mgrPeer)
		r.devices = append(r.devices, dev)
		r.workers = append(r.workers, w)
	}
	return r
}

func spec(name string, p model.TaskProfile, mode sidetask.Mode) TaskSpec {
	return TaskSpec{Name: name, Profile: p, Mode: mode, WorkScale: sidetask.WorkNone, Seed: 7}
}

func TestAlgorithm1PlacementFiltersMemory(t *testing.T) {
	// Worker0 has 3 GiB available (stage-0-like), worker1 has 22 GiB.
	r := newRig(t, 2, []int64{3 * model.GiB, 22 * model.GiB}, WorkerConfig{})
	// VGG19 (9.8 GiB) only fits worker1.
	w, err := r.mgr.SubmitAndPlace(spec("vgg", model.VGG19, sidetask.ModeIterative))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if w != "worker1" {
		t.Fatalf("placed on %s, want worker1", w)
	}
	// ResNet18 (2.63 GiB) fits both; worker0 has fewer tasks.
	w, err = r.mgr.SubmitAndPlace(spec("rn18", model.ResNet18, sidetask.ModeIterative))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if w != "worker0" {
		t.Fatalf("placed on %s, want worker0 (least loaded)", w)
	}
	r.eng.RunFor(time.Second)
}

func TestAlgorithm1RejectsWhenNoFit(t *testing.T) {
	r := newRig(t, 2, []int64{3 * model.GiB, 5 * model.GiB}, WorkerConfig{})
	err := r.mgr.Submit(spec("vgg", model.VGG19, sidetask.ModeIterative))
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("Submit = %v, want rejection", err)
	}
	if r.mgr.Stats().Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", r.mgr.Stats().Rejected)
	}
}

func TestAlgorithm1BalancesLoad(t *testing.T) {
	r := newRig(t, 3, []int64{22 * model.GiB, 22 * model.GiB, 22 * model.GiB}, WorkerConfig{})
	placed := map[string]int{}
	for i := 0; i < 6; i++ {
		w, err := r.mgr.SubmitAndPlace(spec("t"+string(rune('0'+i)), model.ResNet18, sidetask.ModeIterative))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		placed[w]++
	}
	for w, n := range placed {
		if n != 2 {
			t.Fatalf("worker %s got %d tasks, want 2 (balanced): %v", w, n, placed)
		}
	}
	r.eng.RunFor(time.Second)
}

// endToEnd drives a full task lifecycle with scripted bubbles and returns
// the harness counters.
func TestAlgorithm2ServesBubbles(t *testing.T) {
	r := newRig(t, 1, []int64{22 * model.GiB}, WorkerConfig{})
	if err := r.mgr.Submit(spec("rn18", model.ResNet18, sidetask.ModeIterative)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	r.mgr.Start()
	// Let create+init complete (create 1.5s + init 0.4s + slack).
	r.eng.RunFor(4 * time.Second)
	h, ok := r.workers[0].Harness("rn18")
	if !ok {
		t.Fatal("task not deployed on worker0")
	}
	if got := h.State(); got != sidetask.StatePaused {
		t.Fatalf("state before bubbles = %v, want PAUSED", got)
	}

	// Script three 500 ms bubbles 1 s apart.
	base := r.eng.Now()
	for i := 0; i < 3; i++ {
		r.mgr.AddBubble(bubble.Bubble{
			Stage: 0, Type: bubble.TypeA,
			Start:        base + time.Duration(i)*time.Second,
			Duration:     500 * time.Millisecond,
			MemAvailable: 22 * model.GiB,
		})
	}
	r.eng.RunFor(3 * time.Second)

	c := h.Counters()
	// 3 bubbles × ~500ms at ~31.6ms/step ≈ 45 steps total.
	if c.Steps < 30 || c.Steps > 50 {
		t.Fatalf("steps = %d, want ~45", c.Steps)
	}
	if got := h.State(); got != sidetask.StatePaused {
		t.Fatalf("state after bubbles = %v, want PAUSED", got)
	}
	// The task must not run outside bubbles: device idle between them.
	midGap := base + 700*time.Millisecond
	if occ := r.devices[0].Occupancy().At(midGap); occ != 0 {
		t.Fatalf("device busy (%v) between bubbles", occ)
	}
	st := r.mgr.Stats()
	if st.BubblesServed != 3 {
		t.Fatalf("BubblesServed = %d, want 3", st.BubblesServed)
	}
	if st.BubbleTimeServed <= 0 || st.BubbleTimeServed > st.BubbleTimeTotal {
		t.Fatalf("BubbleTimeServed = %v of %v", st.BubbleTimeServed, st.BubbleTimeTotal)
	}
}

func TestBubbleExpiryCounted(t *testing.T) {
	r := newRig(t, 1, []int64{22 * model.GiB}, WorkerConfig{})
	r.mgr.Start()
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: 0, Duration: time.Millisecond})
	r.eng.RunFor(100 * time.Millisecond)
	if got := r.mgr.Stats().BubblesExpired; got != 1 {
		t.Fatalf("BubblesExpired = %d, want 1", got)
	}
}

// refuseToPauseTask ignores the program-directed deadline: its steps are
// 2-second kernels, so a pause lands mid-step and the kernel keeps hogging
// the GPU — the Figure-8a misbehaver.
type refuseToPauseTask struct{}

func (refuseToPauseTask) CreateSideTask(ctx *sidetask.Ctx) error { return nil }
func (refuseToPauseTask) InitSideTask(ctx *sidetask.Ctx) error   { return ctx.GPU.AllocMem(model.GiB) }
func (refuseToPauseTask) StopSideTask(ctx *sidetask.Ctx) error   { return nil }
func (refuseToPauseTask) RunNextStep(ctx *sidetask.Ctx) error {
	return ctx.GPU.Exec(ctx.Proc, &simgpu.KernelSpec{Name: "hog", Duration: 2 * time.Second, Demand: 0.9, Weight: 0.9})
}

func TestFrameworkEnforcedKill(t *testing.T) {
	// The paper's framework-enforced mechanism (Fig. 8a): a task that does
	// not yield the GPU after a pause is SIGKILLed after the grace period.
	factory := func(s TaskSpec) (*sidetask.Harness, error) {
		p := s.Profile
		p.StepTime = 1 * time.Millisecond // lies to the program-directed check
		p.StepJitter = 0
		h := sidetask.NewIterativeHarness(s.Name, p, refuseToPauseTask{}, s.Seed)
		return h, nil
	}
	r := newRig(t, 1, []int64{22 * model.GiB},
		WorkerConfig{Grace: 300 * time.Millisecond, Factory: factory})
	if err := r.mgr.Submit(spec("hog", model.ResNet18, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.Start()
	r.eng.RunFor(4 * time.Second)

	base := r.eng.Now()
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: base, Duration: 400 * time.Millisecond})
	// Bubble ends at +400ms; pause lands mid-2s-kernel; grace expires at
	// ~+700ms; the worker kills the container.
	r.eng.RunFor(2 * time.Second)

	ws := r.workers[0].Stats()
	if ws.GraceKills != 1 {
		t.Fatalf("GraceKills = %d, want 1", ws.GraceKills)
	}
	if r.devices[0].MemUsed() != 0 {
		t.Fatalf("device mem = %d after kill, want 0", r.devices[0].MemUsed())
	}
	// The manager learned about the death via the exit notification.
	var rec TaskView
	for _, tv := range r.mgr.Tasks() {
		if tv.Spec.Name == "hog" {
			rec = tv
		}
	}
	if !rec.Exited {
		t.Fatal("manager did not record the task exit")
	}
}

func TestOOMTaskKilledAndReported(t *testing.T) {
	// MPS memory cap: the manager sets limit = profiled mem + slack; a task
	// that allocates beyond it dies alone (Fig. 8b).
	leakFactory := func(s TaskSpec) (*sidetask.Harness, error) {
		return sidetask.NewIterativeHarness(s.Name, s.Profile, leakyTask{}, s.Seed), nil
	}
	r := newRig(t, 1, []int64{22 * model.GiB}, WorkerConfig{Factory: leakFactory})
	p := model.ResNet18
	p.MemBytes = 2 * model.GiB // MPS limit ≈ 2 GiB (+slack 0)
	if err := r.mgr.Submit(spec("leaky", p, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.Start()
	r.eng.RunFor(4 * time.Second)
	base := r.eng.Now()
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: base, Duration: 5 * time.Second})
	r.eng.RunFor(6 * time.Second)

	var rec TaskView
	for _, tv := range r.mgr.Tasks() {
		if tv.Spec.Name == "leaky" {
			rec = tv
		}
	}
	if !rec.Exited || !strings.Contains(rec.ExitErr, "memory limit") {
		t.Fatalf("task view = %+v, want OOM exit", rec)
	}
	if r.devices[0].MemUsed() != 0 {
		t.Fatalf("device mem = %d, want 0", r.devices[0].MemUsed())
	}
}

// leakyTask allocates another 512 MiB every step.
type leakyTask struct{}

func (leakyTask) CreateSideTask(ctx *sidetask.Ctx) error { return nil }
func (leakyTask) InitSideTask(ctx *sidetask.Ctx) error   { return ctx.GPU.AllocMem(model.GiB / 2) }
func (leakyTask) StopSideTask(ctx *sidetask.Ctx) error   { return nil }
func (leakyTask) RunNextStep(ctx *sidetask.Ctx) error {
	if err := ctx.GPU.AllocMem(model.GiB / 2); err != nil {
		return err
	}
	return ctx.GPU.Exec(ctx.Proc, &simgpu.KernelSpec{Name: "leak-step", Duration: 20 * time.Millisecond, Demand: 0.5})
}

func TestQueuedTaskServedAfterCurrentExits(t *testing.T) {
	r := newRig(t, 1, []int64{22 * model.GiB}, WorkerConfig{})
	if err := r.mgr.Submit(spec("first", model.PageRank, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Submit(spec("second", model.PageRank, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.Start()
	r.eng.RunFor(6 * time.Second)
	// Stop the first task via the worker; the manager should promote the
	// second.
	h1, ok := r.workers[0].Harness("first")
	if !ok {
		t.Fatal("first task missing")
	}
	r.eng.Schedule(0, "stop-first", func() {
		h1.Deliver(sidetask.Command{Transition: sidetask.TransitionStop})
	})
	r.eng.RunFor(2 * time.Second)
	base := r.eng.Now()
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: base, Duration: 300 * time.Millisecond})
	r.eng.RunFor(time.Second)
	h2, ok := r.workers[0].Harness("second")
	if !ok {
		t.Fatal("second task missing")
	}
	if h2.Counters().Steps == 0 {
		t.Fatal("queued task never served after first exited")
	}
}

func TestImperativePauseResumeViaSignals(t *testing.T) {
	r := newRig(t, 1, []int64{22 * model.GiB}, WorkerConfig{})
	if err := r.mgr.Submit(spec("sgd", model.GraphSGD, sidetask.ModeImperative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.Start()
	r.eng.RunFor(6 * time.Second)
	base := r.eng.Now()
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: base, Duration: 600 * time.Millisecond})
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: base + 2*time.Second, Duration: 600 * time.Millisecond})
	r.eng.RunFor(time.Second)
	h, _ := r.workers[0].Harness("sgd")
	stepsAfterFirst := h.Counters().Steps
	if stepsAfterFirst == 0 {
		t.Fatal("imperative task ran no steps in first bubble")
	}
	if !r.workers[0].tasks["sgd"].cont.Process().Stopped() {
		t.Fatal("imperative task not suspended between bubbles")
	}
	r.eng.RunFor(2 * time.Second)
	if got := h.Counters().Steps; got <= stepsAfterFirst {
		t.Fatalf("steps did not advance in second bubble: %d -> %d", stepsAfterFirst, got)
	}
}

func TestWorkerInfoRPC(t *testing.T) {
	r := newRig(t, 1, []int64{22 * model.GiB}, WorkerConfig{})
	// A direct peer to the worker for the query.
	wmux := freerpc.NewMux()
	r.workers[0].RegisterOn(wmux)
	a, b := freerpc.MemPipe(r.eng, 0)
	client := freerpc.NewPeer(r.eng, a, nil)
	freerpc.NewPeer(r.eng, b, wmux)
	var info workerInfo
	var err error
	done := false
	client.Go("Worker.Info", nil, time.Second, func(res any, cerr error) {
		if err = cerr; err == nil {
			info, err = freerpc.DecodeResult[workerInfo](res)
		}
		done = true
	})
	r.eng.RunFor(time.Second)
	if !done || err != nil || info.Name != "worker0" {
		t.Fatalf("Worker.Info = %+v, %v (done=%v)", info, err, done)
	}
}

// stopTap records, in send order, the task named by every Worker.Stop request
// crossing the manager's end of a link.
type stopTap struct {
	freerpc.Conn
	stops *[]string
}

func (c stopTap) SendMsg(m freerpc.Msg) error {
	if m.Method == "Worker.Stop" {
		*c.stops = append(*c.stops, m.Params.(taskRef).Name)
	}
	return c.Conn.SendMsg(m)
}

// TestTasksAndStopAllFollowSubmissionOrder: every pass over all tasks walks
// them in submission order, never in map order — Tasks() returns that order,
// and StopAll's Worker.Stop RPCs (call ids, engine sequence numbers) are
// issued in it.
func TestTasksAndStopAllFollowSubmissionOrder(t *testing.T) {
	eng := simtime.NewVirtual()
	mgr := NewManager(eng, ManagerOptions{Tick: time.Millisecond})
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu0", MemBytes: 64 * model.GiB})
	w := NewWorker(eng, dev, container.NewRuntime(simproc.NewRuntime(eng)), WorkerConfig{Name: "worker0"})
	wmux := freerpc.NewMux()
	w.RegisterOn(wmux)
	mgrEnd, wEnd := freerpc.MemPipe(eng, 200*time.Microsecond)
	var stops []string
	mgrPeer := freerpc.NewPeer(eng, stopTap{mgrEnd, &stops}, mgr.Mux())
	wPeer := freerpc.NewPeer(eng, wEnd, wmux)
	w.SetNotify(func(method string, params any) { _ = wPeer.Notify(method, params) })
	mgr.AddWorker("worker0", 0, 64*model.GiB, mgrPeer)

	var want []string
	for _, c := range "hcafgbed" { // neither sorted nor any likely hash order
		name := "task-" + string(c)
		if err := mgr.Submit(spec(name, model.ResNet18, sidetask.ModeIterative)); err != nil {
			t.Fatalf("Submit %s: %v", name, err)
		}
		want = append(want, name)
	}
	mgr.Start()
	eng.RunFor(time.Second)

	var got []string
	for _, tv := range mgr.Tasks() {
		got = append(got, tv.Spec.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tasks() = %v, want submission order %v", got, want)
	}
	mgr.Stop()
	mgr.StopAll()
	eng.RunFor(time.Second)
	if !reflect.DeepEqual(stops, want) {
		t.Errorf("Worker.Stop calls sent as %v, want submission order %v", stops, want)
	}
}
