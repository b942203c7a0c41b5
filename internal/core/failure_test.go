package core

import (
	"testing"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/model"
	"freeride/internal/sidetask"
)

func TestWorkerDisconnectRetiresItsTasks(t *testing.T) {
	r := newRig(t, 2, []int64{22 * model.GiB, 22 * model.GiB}, WorkerConfig{})
	if err := r.mgr.Submit(spec("t0", model.PageRank, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Submit(spec("t1", model.PageRank, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.Start()
	r.eng.RunFor(6 * time.Second)

	// Sever worker0's link.
	r.eng.Schedule(0, "sever", func() {
		r.mgr.workerPeer(t, 0).Close()
	})
	r.eng.RunFor(time.Second)

	// The task on worker0 is retired; the one on worker1 still serves.
	views := r.mgr.Tasks()
	var lost, alive int
	for _, tv := range views {
		if tv.Exited && tv.ExitErr == "worker lost" {
			lost++
		} else if !tv.Exited {
			alive++
		}
	}
	if lost != 1 || alive != 1 {
		t.Fatalf("lost=%d alive=%d, want 1/1 (%+v)", lost, alive, views)
	}

	// Bubbles on the dead worker are ignored; the live worker still runs.
	base := r.eng.Now()
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: base, Duration: 300 * time.Millisecond})
	r.mgr.AddBubble(bubble.Bubble{Stage: 1, Start: base, Duration: 300 * time.Millisecond})
	r.eng.RunFor(time.Second)
	var liveSteps uint64
	for _, w := range r.workers {
		for _, name := range []string{"t0", "t1"} {
			if h, ok := w.Harness(name); ok && h.State() != sidetask.StateStopped {
				liveSteps += h.Counters().Steps
			}
		}
	}
	if liveSteps == 0 {
		t.Fatal("surviving worker served no steps after the other died")
	}

	// New submissions skip the dead worker.
	placed, err := r.mgr.SubmitAndPlace(spec("t2", model.PageRank, sidetask.ModeIterative))
	if err != nil {
		t.Fatalf("Submit after worker loss: %v", err)
	}
	if placed != "worker1" {
		t.Fatalf("placed on %s, want worker1 (worker0 dead)", placed)
	}
}

// workerPeer digs out the manager-side peer of worker i (test helper).
func (m *Manager) workerPeer(t *testing.T, i int) interface{ Close() } {
	t.Helper()
	return m.workers[i].peer
}

func TestImperativeHogKilledByGPUBusyCheck(t *testing.T) {
	// An imperative task whose in-flight kernel far outlives the grace
	// period is killed by the GPU-busy check even though SIGTSTP
	// suspended its process.
	factory := func(s TaskSpec) (*sidetask.Harness, error) {
		p := s.Profile
		p.StepTime = 20 * time.Second // one giant kernel per step
		p.StepJitter = 0
		p.CreateTime = 100 * time.Millisecond
		p.InitTime = 50 * time.Millisecond
		return sidetask.NewImperativeHarness(s.Name, p, hugeKernelTask{}, s.Seed), nil
	}
	r := newRig(t, 1, []int64{22 * model.GiB},
		WorkerConfig{Grace: 200 * time.Millisecond, Factory: factory})
	if err := r.mgr.Submit(spec("hog", model.GraphSGD, sidetask.ModeImperative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.Start()
	r.eng.RunFor(time.Second)
	base := r.eng.Now()
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: base, Duration: 400 * time.Millisecond})
	r.eng.RunFor(3 * time.Second)
	if got := r.workers[0].Stats().GraceKills; got != 1 {
		t.Fatalf("GraceKills = %d, want 1", got)
	}
	if r.devices[0].MemUsed() != 0 {
		t.Fatalf("device mem = %d after kill", r.devices[0].MemUsed())
	}
}

type hugeKernelTask struct{}

func (hugeKernelTask) CreateSideTask(*sidetask.Ctx) error { return nil }
func (hugeKernelTask) InitSideTask(ctx *sidetask.Ctx) error {
	return ctx.GPU.AllocMem(model.GiB)
}
func (hugeKernelTask) RunGpuWorkload(ctx *sidetask.Ctx) error {
	for {
		if err := ctx.ExecStepKernel(); err != nil {
			return err
		}
	}
}

func TestStopAllWindsDownCleanly(t *testing.T) {
	r := newRig(t, 2, []int64{22 * model.GiB, 22 * model.GiB}, WorkerConfig{})
	for _, n := range []string{"a", "b"} {
		if err := r.mgr.Submit(spec(n, model.PageRank, sidetask.ModeIterative)); err != nil {
			t.Fatal(err)
		}
	}
	r.mgr.Start()
	r.eng.RunFor(6 * time.Second)
	r.eng.Schedule(0, "stopall", func() {
		r.mgr.Stop()
		r.mgr.StopAll()
	})
	r.eng.RunFor(2 * time.Second)
	for _, w := range r.workers {
		for _, n := range []string{"a", "b"} {
			if h, ok := w.Harness(n); ok {
				if h.State() != sidetask.StateStopped {
					t.Fatalf("task %s state %v after StopAll, want STOPPED", n, h.State())
				}
			}
		}
		if r.devices[0].MemUsed() != 0 {
			t.Fatalf("device mem %d after StopAll", r.devices[0].MemUsed())
		}
	}
}

func TestInitHangKilledByInitTimeout(t *testing.T) {
	factory := func(s TaskSpec) (*sidetask.Harness, error) {
		p := s.Profile
		p.CreateTime = 50 * time.Millisecond
		p.InitTime = 10 * time.Millisecond // claimed; actual hangs forever
		return sidetask.NewIterativeHarness(s.Name, p, hangingInitTask{}, s.Seed), nil
	}
	r := newRig(t, 1, []int64{22 * model.GiB},
		WorkerConfig{Grace: 100 * time.Millisecond, Factory: factory})
	if err := r.mgr.Submit(spec("hang", model.ResNet18, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.Start()
	r.eng.RunFor(5 * time.Second)
	if got := r.workers[0].Stats().InitKills; got != 1 {
		t.Fatalf("InitKills = %d, want 1", got)
	}
}

type hangingInitTask struct{}

func (hangingInitTask) CreateSideTask(*sidetask.Ctx) error { return nil }
func (hangingInitTask) InitSideTask(ctx *sidetask.Ctx) error {
	ctx.Proc.Sleep(time.Hour) // never completes
	return nil
}
func (hangingInitTask) StopSideTask(*sidetask.Ctx) error { return nil }
func (hangingInitTask) RunNextStep(*sidetask.Ctx) error  { return nil }

func TestDuplicateSubmitRejected(t *testing.T) {
	r := newRig(t, 1, []int64{22 * model.GiB}, WorkerConfig{})
	if err := r.mgr.Submit(spec("dup", model.PageRank, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Submit(spec("dup", model.PageRank, sidetask.ModeIterative)); err == nil {
		t.Fatal("duplicate task name accepted")
	}
	r.eng.RunFor(time.Second)
}

// --- self-healing manager (PR 6) ------------------------------------------

// leaseOpts is the standard lease-enabled manager config for recovery tests.
func leaseOpts() ManagerOptions {
	return ManagerOptions{
		Tick:        time.Millisecond,
		Lease:       250 * time.Millisecond,
		MaxRestarts: 3,
		Seed:        1,
	}
}

func taskView(t *testing.T, m *Manager, name string) TaskView {
	t.Helper()
	for _, tv := range m.Tasks() {
		if tv.Spec.Name == name {
			return tv
		}
	}
	t.Fatalf("task %q not found", name)
	return TaskView{}
}

// TestSubmitRacingWorkerDisconnect closes the worker link in the same
// instant a Submit's create RPC is in flight: the record must settle retired
// (not limbo), and the create callback must not resurrect it.
func TestSubmitRacingWorkerDisconnect(t *testing.T) {
	r := newRig(t, 2, []int64{22 * model.GiB, 22 * model.GiB}, WorkerConfig{})
	r.mgr.Start()
	r.eng.RunFor(10 * time.Millisecond)
	if err := r.mgr.Submit(spec("race", model.PageRank, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.workerPeer(t, 0).Close() // create RPC still in flight
	r.eng.RunFor(time.Second)
	tv := taskView(t, r.mgr, "race")
	if !tv.Exited {
		t.Fatalf("task after submit/disconnect race = %+v, want exited", tv)
	}
	// The other worker keeps taking submissions.
	if placed, err := r.mgr.SubmitAndPlace(spec("next", model.PageRank, sidetask.ModeIterative)); err != nil || placed != "worker1" {
		t.Fatalf("follow-up placed on %q (%v), want worker1", placed, err)
	}
	r.eng.RunFor(time.Second)
}

// TestLeaseExpiryReplacesTaskWithCheckpoint is the end-to-end recovery path:
// a worker crashes silently (link stays open, pings fail), its lease
// expires, and the task is re-placed on a peer resuming from the checkpoint
// recorded at its last acknowledged pause.
func TestLeaseExpiryReplacesTaskWithCheckpoint(t *testing.T) {
	r := newRigOpts(t, 2, []int64{22 * model.GiB, 22 * model.GiB}, WorkerConfig{}, leaseOpts())
	if err := r.mgr.Submit(spec("t0", model.PageRank, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.Start()
	r.eng.RunFor(6 * time.Second) // create + init
	// Serve two bubbles on worker0's stage; each pause checkpoints progress.
	base := r.eng.Now()
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: base, Duration: 500 * time.Millisecond})
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: base + time.Second, Duration: 500 * time.Millisecond})
	r.eng.RunFor(2 * time.Second)
	ck := r.mgr.tasks["t0"].ckpt
	hasCkpt := r.mgr.tasks["t0"].hasCkpt
	if !hasCkpt || ck.Steps == 0 {
		t.Fatalf("no checkpoint after served bubbles: hasCkpt=%v ckpt=%+v", hasCkpt, ck)
	}

	// Silent crash: the link stays open but pings go unanswered.
	r.eng.Schedule(0, "crash", func() { r.workers[0].Crash() })
	r.eng.RunFor(8 * time.Second) // lease expiry + backoff + re-create + re-init

	if w, ok := r.mgr.TaskWorker("t0"); !ok || w != "worker1" {
		t.Fatalf("TaskWorker = %q/%v, want worker1", w, ok)
	}
	h, ok := r.workers[1].Harness("t0")
	if !ok {
		t.Fatal("task not re-deployed on worker1")
	}
	if got := h.Counters().Steps; got < ck.Steps {
		t.Fatalf("restarted task counters %d < checkpoint %d (did not restore)", got, ck.Steps)
	}

	// The new incarnation serves bubbles on its new stage.
	base = r.eng.Now()
	r.mgr.AddBubble(bubble.Bubble{Stage: 1, Start: base, Duration: 500 * time.Millisecond})
	r.eng.RunFor(2 * time.Second)
	if got := h.Counters().Steps; got <= ck.Steps {
		t.Fatalf("restarted task never stepped past checkpoint (%d <= %d)", got, ck.Steps)
	}

	st := r.mgr.Stats()
	if st.WorkersLost != 1 || st.RestartedTasks != 1 || st.Replacements != 1 || st.ParkedTasks != 0 {
		t.Fatalf("stats = %+v, want 1 lost / 1 restarted / 1 replacement / 0 parked", st)
	}
	tv := taskView(t, r.mgr, "t0")
	if tv.Exited || tv.Parked || tv.Restarts != 1 {
		t.Fatalf("task view = %+v, want live with 1 restart", tv)
	}
}

// TestTaskExitedAfterLeaseExpiryIgnored delivers a stale-incarnation exit
// report after the task was already re-placed: the manager must discard it.
func TestTaskExitedAfterLeaseExpiryIgnored(t *testing.T) {
	r := newRigOpts(t, 2, []int64{22 * model.GiB, 22 * model.GiB}, WorkerConfig{}, leaseOpts())
	if err := r.mgr.Submit(spec("t0", model.PageRank, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.Start()
	r.eng.RunFor(6 * time.Second)
	// Hard crash with link close: immediate detection, then re-placement.
	r.eng.Schedule(0, "crash", func() {
		r.workers[0].Crash()
		r.mgr.workerPeer(t, 0).Close()
	})
	r.eng.RunFor(4 * time.Second)
	if w, ok := r.mgr.TaskWorker("t0"); !ok || w != "worker1" {
		t.Fatalf("TaskWorker = %q/%v, want worker1", w, ok)
	}
	// A straggler exit push from the dead incarnation 0 arrives late.
	r.mgr.onTaskExited(taskStatus{Name: "t0", Exited: true, ExitErr: "stale crash", Incarnation: 0})
	tv := taskView(t, r.mgr, "t0")
	if tv.Exited {
		t.Fatalf("stale-incarnation exit retired the live replacement: %+v", tv)
	}
	r.eng.RunFor(time.Second)
}

// TestReplacementRerunsAdmission pins re-placement against Algorithm 1: when
// the only worker that admits the task dies, the survivor (too small) must
// not receive it — the task burns its retry budget and parks, with no
// double placement anywhere.
func TestReplacementRerunsAdmission(t *testing.T) {
	// VGG19 (9.8 GiB) fits only worker0; worker1 has 3 GiB.
	r := newRigOpts(t, 2, []int64{22 * model.GiB, 3 * model.GiB}, WorkerConfig{}, leaseOpts())
	if err := r.mgr.Submit(spec("vgg", model.VGG19, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.Start()
	r.eng.RunFor(6 * time.Second)
	r.eng.Schedule(0, "crash", func() {
		r.workers[0].Crash()
		r.mgr.workerPeer(t, 0).Close()
	})
	r.eng.RunFor(5 * time.Second) // enough for the full backoff ladder
	tv := taskView(t, r.mgr, "vgg")
	if !tv.Parked {
		t.Fatalf("task view = %+v, want parked (budget exhausted, no eligible worker)", tv)
	}
	if _, ok := r.workers[1].Harness("vgg"); ok {
		t.Fatal("task deployed on a worker that fails the admission predicate")
	}
	st := r.mgr.Stats()
	if st.ParkedTasks != 1 || st.Replacements != 0 || st.RestartedTasks != 0 {
		t.Fatalf("stats = %+v, want 1 parked / 0 replacements / 0 restarted", st)
	}
	// Parked is terminal: no retry timer keeps firing.
	if pend := r.eng.Pending(); pend != 0 {
		// Ping/lease timers for worker1 remain; just ensure time can drain
		// without the parked task thrashing.
		r.eng.RunFor(time.Second)
	}
	if got := taskView(t, r.mgr, "vgg").Restarts; got != r.mgr.opts.MaxRestarts+1 {
		t.Fatalf("Restarts = %d, want %d (budget + the final parking attempt)", got, r.mgr.opts.MaxRestarts+1)
	}
}

// TestCrashDuringReplanWindowSingleRecoveryPath composes drift with faults:
// the worker crashes inside the re-plan window — after a drift demotion
// detached the task but before its backoff re-placement fired. Both the
// lease machinery and the re-plan machinery are armed; the task must
// resolve through exactly ONE recovery path (the demotion's), with the
// crash charging the worker loss but not double-charging the task, and the
// stale incarnation's late exit report discarded by incarnation number.
func TestCrashDuringReplanWindowSingleRecoveryPath(t *testing.T) {
	opts := leaseOpts()
	det := bubble.FastDetector()
	opts.Replan = &det
	r := newRigOpts(t, 2, []int64{22 * model.GiB, 22 * model.GiB}, WorkerConfig{}, opts)
	if err := r.mgr.Submit(spec("t0", model.GraphSGD, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.SetBubbleBaseline("worker0", time.Second, 1)
	r.mgr.Start()
	r.eng.RunFor(6 * time.Second)

	// Collapsed report: the fast detector fires on arrival and demotes the
	// task into its backoff window (50–75ms).
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: r.eng.Now(), Duration: 100 * time.Millisecond})
	// Crash the old worker inside that window: the demoted task is already
	// detached, so the worker loss must not retire or re-plan it again.
	r.eng.Schedule(10*time.Millisecond, "crash", func() {
		r.workers[0].Crash()
		r.mgr.workerPeer(t, 0).Close()
	})
	r.eng.RunFor(7 * time.Second) // backoff + re-create + re-init on worker1

	if w, ok := r.mgr.TaskWorker("t0"); !ok || w != "worker1" {
		t.Fatalf("TaskWorker = %q/%v, want worker1", w, ok)
	}
	tv := taskView(t, r.mgr, "t0")
	if tv.Exited || tv.Parked || tv.Restarts != 1 {
		t.Fatalf("task view = %+v, want live with exactly 1 restart (one recovery path)", tv)
	}
	st := r.mgr.Stats()
	if st.Demotions != 1 || st.WorkersLost != 1 {
		t.Fatalf("stats = %+v, want 1 demotion and 1 worker lost", st)
	}
	if st.RestartedTasks != 1 || st.Replacements != 1 {
		t.Fatalf("stats = %+v, want exactly 1 restart / 1 replacement (no double recovery)", st)
	}

	// The stopped incarnation's exit report surfaces late (the crash raced
	// the Worker.Stop): the incarnation number wins and the live
	// replacement is untouched.
	r.mgr.onTaskExited(taskStatus{Name: "t0", Exited: true,
		ExitErr: "simproc: killed", Incarnation: 0})
	if tv := taskView(t, r.mgr, "t0"); tv.Exited {
		t.Fatalf("stale-incarnation exit retired the live replacement: %+v", tv)
	}
	r.eng.RunFor(time.Second)
}

// TestWedgeHealsViaPingAntiEntropy wedges a worker's reporting across its
// init completion: the PAUSED push is swallowed, and the manager's record
// heals from the next ping snapshot instead of wedging the whole queue.
func TestWedgeHealsViaPingAntiEntropy(t *testing.T) {
	r := newRigOpts(t, 1, []int64{22 * model.GiB}, WorkerConfig{}, leaseOpts())
	if err := r.mgr.Submit(spec("t0", model.ResNet18, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	// Wedge reporting across create (1.5s) + init (0.4s) completion.
	r.workers[0].WedgeFor(3 * time.Second)
	r.mgr.Start()
	r.eng.RunFor(4 * time.Second)
	tv := taskView(t, r.mgr, "t0")
	if tv.State != sidetask.StatePaused || tv.Exited {
		t.Fatalf("task view after wedge window = %+v, want PAUSED (ping heal)", tv)
	}
	// The worker was never declared dead: it kept answering pings.
	if st := r.mgr.Stats(); st.WorkersLost != 0 {
		t.Fatalf("WorkersLost = %d, want 0 (wedge is not death)", st.WorkersLost)
	}
	base := r.eng.Now()
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: base, Duration: 500 * time.Millisecond})
	r.eng.RunFor(time.Second)
	h, _ := r.workers[0].Harness("t0")
	if h.Counters().Steps == 0 {
		t.Fatal("healed task never served a bubble")
	}
}
