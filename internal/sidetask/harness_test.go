package sidetask

import (
	"testing"
	"time"

	"freeride/internal/container"
	"freeride/internal/model"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

type taskRig struct {
	eng  *simtime.Virtual
	dev  *simgpu.Device
	ctr  *container.Runtime
	h    *Harness
	cont *container.Container
}

func newTaskRig(t *testing.T, profile model.TaskProfile, mode Mode) *taskRig {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu0"})
	ctr := container.NewRuntime(procs)
	h, err := NewBuiltin(profile, mode, WorkNone, 1)
	if err != nil {
		t.Fatalf("NewBuiltin: %v", err)
	}
	cont, err := ctr.Run(container.Spec{
		Name:        profile.Name,
		Device:      dev,
		GPUMemLimit: profile.MemBytes + model.GiB,
	}, h.Run)
	if err != nil {
		t.Fatalf("container.Run: %v", err)
	}
	return &taskRig{eng: eng, dev: dev, ctr: ctr, h: h, cont: cont}
}

func TestIterativeLifecycle(t *testing.T) {
	r := newTaskRig(t, model.ResNet18, ModeIterative)
	// SUBMITTED -> CREATED after CreateTime.
	r.eng.RunUntil(model.ResNet18.CreateTime + 10*time.Millisecond)
	if got := r.h.State(); got != StateCreated {
		t.Fatalf("state = %v, want CREATED", got)
	}
	if r.dev.MemUsed() != 0 {
		t.Fatal("GPU memory allocated before InitSideTask")
	}
	// CREATED -> PAUSED.
	r.eng.Schedule(0, "init", func() { r.h.Deliver(Command{Transition: TransitionInit}) })
	r.eng.RunFor(model.ResNet18.InitTime + 10*time.Millisecond)
	if got := r.h.State(); got != StatePaused {
		t.Fatalf("state = %v, want PAUSED", got)
	}
	if r.dev.MemUsed() != model.ResNet18.MemBytes {
		t.Fatalf("GPU mem = %d, want %d", r.dev.MemUsed(), model.ResNet18.MemBytes)
	}
	// PAUSED -> RUNNING for a 500ms bubble.
	start := r.eng.Now()
	r.eng.Schedule(0, "start", func() {
		r.h.Deliver(Command{Transition: TransitionStart, BubbleEnd: start + 500*time.Millisecond})
	})
	r.eng.RunFor(500 * time.Millisecond)
	if got := r.h.State(); got != StateRunning {
		t.Fatalf("state = %v, want RUNNING", got)
	}
	r.eng.Schedule(0, "pause", func() { r.h.Deliver(Command{Transition: TransitionPause}) })
	r.eng.RunFor(100 * time.Millisecond)
	if got := r.h.State(); got != StatePaused {
		t.Fatalf("state = %v, want PAUSED after pause", got)
	}
	c := r.h.Counters()
	if c.Steps == 0 {
		t.Fatal("no steps ran during the bubble")
	}
	// ~500ms bubble / ~31.6ms step ≈ 14-15 steps.
	if c.Steps > 16 {
		t.Fatalf("steps = %d, impossibly many for a 500ms bubble", c.Steps)
	}
	// PAUSED -> STOPPED releases memory and exits the container.
	r.eng.Schedule(0, "stop", func() { r.h.Deliver(Command{Transition: TransitionStop}) })
	r.eng.RunFor(100 * time.Millisecond)
	if got := r.h.State(); got != StateStopped {
		t.Fatalf("state = %v, want STOPPED", got)
	}
	if r.cont.Alive() {
		t.Fatal("container still alive after stop")
	}
	if r.dev.MemUsed() != 0 {
		t.Fatalf("GPU mem = %d after stop, want 0", r.dev.MemUsed())
	}
}

func TestProgramDirectedLimitSkipsFinalStep(t *testing.T) {
	// A bubble barely longer than one step must run exactly one step; the
	// remainder is recorded as insufficient time and, crucially, no kernel
	// may run past the bubble end.
	r := newTaskRig(t, model.ResNet18, ModeIterative)
	r.eng.RunUntil(2 * time.Second)
	r.eng.Schedule(0, "init", func() { r.h.Deliver(Command{Transition: TransitionInit}) })
	r.eng.RunFor(time.Second)

	// Profile estimate is StepTime+HostOverhead ≈ 31.6ms; give 40ms.
	bubbleStart := r.eng.Now()
	bubbleEnd := bubbleStart + 40*time.Millisecond
	r.eng.Schedule(0, "start", func() {
		r.h.Deliver(Command{Transition: TransitionStart, BubbleEnd: bubbleEnd})
	})
	r.eng.RunUntil(bubbleEnd + 200*time.Millisecond)
	c := r.h.Counters()
	if c.Steps != 1 {
		t.Fatalf("steps = %d, want exactly 1", c.Steps)
	}
	if c.InsuffWait <= 0 {
		t.Fatal("no insufficient-time accounting")
	}
	// The device must be idle after the step: no kernel crossed the end
	// except possibly the jittered first step (max jitter 10% of 30.4ms
	// fits inside 40ms window only if jitter < ~6ms, which holds).
	if occ := r.dev.Occupancy().At(bubbleEnd + 50*time.Millisecond); occ != 0 {
		t.Fatalf("occupancy %v after bubble end — kernel overran", occ)
	}
}

func TestIterativeStartWhileRunningExtendsBubble(t *testing.T) {
	r := newTaskRig(t, model.PageRank, ModeIterative)
	r.eng.RunUntil(5 * time.Second)
	r.eng.Schedule(0, "init", func() { r.h.Deliver(Command{Transition: TransitionInit}) })
	r.eng.RunFor(time.Second)
	t0 := r.eng.Now()
	r.eng.Schedule(0, "start1", func() {
		r.h.Deliver(Command{Transition: TransitionStart, BubbleEnd: t0 + 50*time.Millisecond})
	})
	r.eng.Schedule(40*time.Millisecond, "extend", func() {
		r.h.Deliver(Command{Transition: TransitionStart, BubbleEnd: t0 + 200*time.Millisecond})
	})
	r.eng.RunUntil(t0 + 300*time.Millisecond)
	c := r.h.Counters()
	// ~200ms at ~4.2ms/step ≈ 45 steps; far more than the ~11 of 50ms.
	if c.Steps < 30 {
		t.Fatalf("steps = %d, want ≥30 after extension", c.Steps)
	}
}

func TestImperativePauseLeavesKernelInFlight(t *testing.T) {
	// The asynchronous-kernel overhead of the imperative interface (paper
	// §5): SIGTSTP stops the process but the submitted kernel completes.
	r := newTaskRig(t, model.GraphSGD, ModeImperative)
	r.eng.RunUntil(6 * time.Second)
	r.eng.Schedule(0, "init", func() { r.h.Deliver(Command{Transition: TransitionInit}) })
	r.eng.RunFor(2 * time.Second)
	if got := r.h.State(); got != StatePaused {
		t.Fatalf("state = %v, want PAUSED", got)
	}
	t0 := r.eng.Now()
	r.eng.Schedule(0, "start", func() {
		r.h.Deliver(Command{Transition: TransitionStart, BubbleEnd: t0 + 10*time.Second})
	})
	// Pause mid-step via SIGTSTP (bubble "ends").
	r.eng.Schedule(300*time.Millisecond, "tstp", func() { r.cont.Stop() })
	r.eng.RunUntil(t0 + 302*time.Millisecond)
	if !r.cont.Process().Stopped() {
		t.Fatal("process not suspended after SIGTSTP")
	}
	// The in-flight SGD sub-kernel (~30 ms each) keeps the device busy
	// past the stop signal.
	if occ := r.dev.Occupancy().Max(t0+300*time.Millisecond, t0+330*time.Millisecond); occ == 0 {
		t.Fatal("no in-flight kernel after SIGTSTP — imperative semantics broken")
	}
	// Eventually the kernel drains and the device goes idle.
	r.eng.RunUntil(t0 + 2*time.Second)
	if occ := r.dev.Occupancy().At(r.eng.Now()); occ != 0 {
		t.Fatalf("device still busy %v long after SIGTSTP", occ)
	}
	// SIGCONT resumes stepping.
	stepsAtPause := r.h.Counters().Steps
	r.eng.Schedule(0, "cont", func() { r.cont.Cont() })
	r.eng.RunFor(2 * time.Second)
	if got := r.h.Counters().Steps; got <= stepsAtPause {
		t.Fatalf("steps did not advance after SIGCONT: %d -> %d", stepsAtPause, got)
	}
}

func TestHarnessOOMKillsOnlyTask(t *testing.T) {
	// MPS memory cap below the task's footprint: InitSideTask OOMs, the
	// container dies, the device is untouched for others.
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu0"})
	ctr := container.NewRuntime(procs)
	h, err := NewBuiltin(model.VGG19, ModeIterative, WorkNone, 1)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := ctr.Run(container.Spec{
		Name: "vgg", Device: dev, GPUMemLimit: 1 * model.GiB,
	}, h.Run)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5 * time.Second)
	eng.Schedule(0, "init", func() { h.Deliver(Command{Transition: TransitionInit}) })
	eng.RunFor(5 * time.Second)
	exited, exitErr := cont.ExitInfo()
	if !exited || exitErr == nil {
		t.Fatalf("ExitInfo = %v/%v, want OOM exit", exited, exitErr)
	}
	if dev.MemUsed() != 0 {
		t.Fatalf("device mem = %d after OOM, want 0", dev.MemUsed())
	}
}

func TestBuiltinAllTasksConstructible(t *testing.T) {
	for _, p := range model.TaskProfiles {
		for _, mode := range []Mode{ModeIterative, ModeImperative} {
			h, err := NewBuiltin(p, mode, WorkSmall, 42)
			if err != nil {
				t.Errorf("NewBuiltin(%s,%v): %v", p.Name, mode, err)
				continue
			}
			if h.Mode() != mode || h.Profile().Name != p.Name {
				t.Errorf("harness mismatch for %s", p.Name)
			}
		}
	}
	if _, err := NewBuiltin(model.TaskProfile{Name: "nope"}, ModeIterative, WorkNone, 1); err == nil {
		t.Error("unknown task constructible")
	}
}

func TestBuiltinBatchVariantResolves(t *testing.T) {
	p := model.ResNet18.WithBatch(96)
	if _, err := NewBuiltin(p, ModeIterative, WorkNone, 1); err != nil {
		t.Fatalf("batch variant: %v", err)
	}
}

func TestBuiltinRealWorkRuns(t *testing.T) {
	// With WorkSmall the PageRank task performs real iterations.
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu0"})
	ctr := container.NewRuntime(procs)
	h, _ := NewBuiltin(model.PageRank, ModeIterative, WorkSmall, 7)
	ctr.Run(container.Spec{Name: "pr", Device: dev}, h.Run)
	eng.RunUntil(6 * time.Second)
	eng.Schedule(0, "init", func() { h.Deliver(Command{Transition: TransitionInit}) })
	eng.RunFor(2 * time.Second)
	t0 := eng.Now()
	eng.Schedule(0, "start", func() {
		h.Deliver(Command{Transition: TransitionStart, BubbleEnd: t0 + 100*time.Millisecond})
	})
	eng.RunFor(200 * time.Millisecond)
	if h.Counters().Steps == 0 {
		t.Fatal("no real PageRank steps executed")
	}
}

// TestBuiltinStepAllocFree pins the real work under WorkSmall: every row of
// builtins, built from a seed and warmed, steps without allocating — the
// trainer's buffers, SGD's pass order and the image pipeline's images are
// each kept by the workload that fills them — and so does StepWork, which
// joins the step computed ahead and starts the next through a func bound
// once.
func TestBuiltinStepAllocFree(t *testing.T) {
	for _, b := range builtins {
		step, err := b.build(42)
		if err != nil {
			t.Fatalf("%v: %v", b.names, err)
		}
		run := func() {
			if err := step(); err != nil {
				t.Fatalf("%v: %v", b.names, err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%v: a warmed step allocates %.1f objects, want 0", b.names, allocs)
		}

		task := newWorkSmall(t, b.build)
		work := func() {
			if err := task.StepWork(nil); err != nil {
				t.Fatalf("%v: %v", b.names, err)
			}
		}
		work()
		work()
		if allocs := testing.AllocsPerRun(20, work); allocs != 0 {
			t.Errorf("%v: a warmed StepWork allocates %.1f objects, want 0", b.names, allocs)
		}
		task.join()
	}
}

func TestModeString(t *testing.T) {
	if ModeIterative.String() != "iterative" || ModeImperative.String() != "imperative" {
		t.Fatal("Mode.String mismatch")
	}
	if StateRunning.String() != "RUNNING" || TransitionPause.String() != "PauseSideTask" {
		t.Fatal("String mismatch")
	}
}
