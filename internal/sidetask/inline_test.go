package sidetask

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"freeride/internal/container"
	"freeride/internal/model"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// stateEvent is one observed transition with its virtual timestamp.
type stateEvent struct {
	State State
	At    time.Duration
}

// runScriptedLifecycle drives one harness through a fixed command script on
// a private rig and returns the observed state transitions (with
// timestamps), the final counters and the final device memory.
func runScriptedLifecycle(t *testing.T, mode Mode, inline bool) ([]stateEvent, Counters, int64) {
	t.Helper()
	profile := model.ResNet18
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu0"})
	ctr := container.NewRuntime(procs)
	h, err := NewBuiltin(profile, mode, WorkNone, 1)
	if err != nil {
		t.Fatalf("NewBuiltin: %v", err)
	}
	var events []stateEvent
	h.SetStateListener(func(s State) {
		events = append(events, stateEvent{State: s, At: eng.Now()})
	})
	spec := container.Spec{
		Name:        profile.Name,
		Device:      dev,
		GPUMemLimit: profile.MemBytes + model.GiB,
	}
	var cont *container.Container
	if inline {
		if !h.CanInline() {
			t.Fatalf("built-in %s (mode %v) should be inline-capable", profile.Name, mode)
		}
		cont, err = ctr.RunInline(spec, h.Start)
	} else {
		cont, err = ctr.Run(spec, h.Run)
	}
	if err != nil {
		t.Fatalf("container: %v", err)
	}

	// Scripted lifecycle (ResNet18 creates for 1.5s, inits for 0.4s):
	// init, a 500ms bubble, a mid-run bubble extension, pause, a second
	// 300ms bubble, stop.
	eng.Schedule(1600*time.Millisecond, "init", func() {
		h.Deliver(Command{Transition: TransitionInit})
	})
	eng.Schedule(2100*time.Millisecond, "start", func() {
		h.Deliver(Command{Transition: TransitionStart, BubbleEnd: eng.Now() + 500*time.Millisecond})
	})
	eng.Schedule(2400*time.Millisecond, "extend", func() {
		h.Deliver(Command{Transition: TransitionStart, BubbleEnd: eng.Now() + 400*time.Millisecond})
	})
	eng.Schedule(2700*time.Millisecond, "pause", func() {
		if mode == ModeImperative {
			cont.Stop()
		} else {
			h.Deliver(Command{Transition: TransitionPause})
		}
	})
	eng.Schedule(3000*time.Millisecond, "start2", func() {
		if mode == ModeImperative {
			cont.Cont()
		} else {
			h.Deliver(Command{Transition: TransitionStart, BubbleEnd: eng.Now() + 300*time.Millisecond})
		}
	})
	eng.Schedule(3600*time.Millisecond, "stop", func() {
		if mode == ModeImperative && cont.Process().Stopped() {
			cont.Cont()
		}
		h.Deliver(Command{Transition: TransitionStop})
		if mode == ModeImperative {
			// The imperative body never reads its inbox mid-run; kill it
			// after a grace, like the worker does.
			eng.ScheduleDetached(500*time.Millisecond, "stop-kill", func() {
				if cont.Alive() {
					cont.Kill()
				}
			})
		}
	})
	eng.RunUntil(5 * time.Second)
	return events, h.Counters(), dev.MemUsed()
}

// TestInlineMatchesGoroutineIterative is the equivalence guarantee for the
// event-loop harness: an identical command script must produce bit-identical
// state transitions (including timestamps), counters and memory effects in
// both execution substrates.
func TestInlineMatchesGoroutineIterative(t *testing.T) {
	gEvents, gCounters, gMem := runScriptedLifecycle(t, ModeIterative, false)
	iEvents, iCounters, iMem := runScriptedLifecycle(t, ModeIterative, true)
	if !reflect.DeepEqual(gEvents, iEvents) {
		t.Errorf("state transitions diverge:\ngoroutine %+v\ninline    %+v", gEvents, iEvents)
	}
	// StepEvents is substrate accounting by design: it counts what a step
	// costs the engine, not what it does. Everything else must match to the
	// bit.
	gCounters.StepEvents, iCounters.StepEvents = 0, 0
	if gCounters != iCounters {
		t.Errorf("counters diverge:\ngoroutine %+v\ninline    %+v", gCounters, iCounters)
	}
	if gMem != iMem {
		t.Errorf("device memory diverges: goroutine %d, inline %d", gMem, iMem)
	}
	if gCounters.Steps == 0 {
		t.Fatal("scripted lifecycle ran no steps")
	}
}

// TestInlineMatchesGoroutineImperative covers the SIGTSTP/SIGCONT path: the
// inline imperative loop must pause and resume at the same kernel
// boundaries as the goroutine body.
func TestInlineMatchesGoroutineImperative(t *testing.T) {
	gEvents, gCounters, gMem := runScriptedLifecycle(t, ModeImperative, false)
	iEvents, iCounters, iMem := runScriptedLifecycle(t, ModeImperative, true)
	if !reflect.DeepEqual(gEvents, iEvents) {
		t.Errorf("state transitions diverge:\ngoroutine %+v\ninline    %+v", gEvents, iEvents)
	}
	// StepEvents is substrate accounting by design (see the iterative
	// variant above).
	gCounters.StepEvents, iCounters.StepEvents = 0, 0
	if gCounters != iCounters {
		t.Errorf("counters diverge:\ngoroutine %+v\ninline    %+v", gCounters, iCounters)
	}
	if gMem != iMem {
		t.Errorf("device memory diverges: goroutine %d, inline %d", gMem, iMem)
	}
	if gCounters.Steps == 0 {
		t.Fatal("scripted lifecycle ran no steps")
	}
}

// TestCanInline pins which harnesses take the event-loop path.
func TestCanInline(t *testing.T) {
	for _, mode := range []Mode{ModeIterative, ModeImperative} {
		h, err := NewBuiltin(model.PageRank, mode, WorkNone, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !h.CanInline() {
			t.Errorf("built-in pagerank (mode %v) should be inline-capable", mode)
		}
	}
	// Arbitrary user implementations keep the goroutine shell.
	h := NewIterativeHarness("custom", model.PageRank, customIter{}, 1)
	if h.CanInline() {
		t.Error("non-Stepper Iterative must not claim inline capability")
	}
}

type customIter struct{}

func (customIter) CreateSideTask(*Ctx) error { return nil }
func (customIter) InitSideTask(*Ctx) error   { return nil }
func (customIter) RunNextStep(ctx *Ctx) error {
	return ctx.ExecStepKernel()
}
func (customIter) StopSideTask(*Ctx) error { return nil }

// countedStepper is fuseStepper counting its RunNextStep calls, which only
// the goroutine shell makes.
type countedStepper struct {
	fuseStepper
	calls *uint64
}

func (c countedStepper) RunNextStep(ctx *Ctx) error {
	*c.calls++
	return c.fuseStepper.RunNextStep(ctx)
}

// TestLaunchPicksSubstrate pins the one deployment entry on all four arms: a
// Stepper goes to the event loop, the same body with its Stepper hidden goes
// to the goroutine shell (the only caller of RunNextStep). A step costs one
// engine event on a device that can lead and two on one that cannot, on
// either substrate, and the observable life cycle is the same everywhere.
func TestLaunchPicksSubstrate(t *testing.T) {
	run := func(sub midStepSubstrate) midStepResult {
		eng := simtime.NewVirtual()
		dev := substrateDevice(t, eng, sub)
		ctrs := container.NewRuntime(simproc.NewRuntime(eng))
		var calls uint64
		var impl Iterative = countedStepper{calls: &calls}
		if sub.shell() {
			impl = struct{ Iterative }{impl}
		}
		h := NewIterativeHarness("launch", fuseProfile, impl, 1)
		res := midStepResult{exitAt: -1}
		h.SetStateListener(func(s State) {
			res.events = append(res.events, stateEvent{State: s, At: eng.Now()})
		})
		cont, err := h.Launch(ctrs, container.Spec{Name: "launch", Device: dev})
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		cont.Process().OnExit(func(err error) { res.exitAt, res.exitErr = eng.Now(), err })
		eng.Schedule(200*time.Millisecond, "init", func() {
			h.Deliver(Command{Transition: TransitionInit})
			h.Deliver(Command{Transition: TransitionStart, BubbleEnd: 700 * time.Millisecond})
		})
		eng.Schedule(900*time.Millisecond, "stop", func() { h.Deliver(Command{Transition: TransitionStop}) })
		eng.RunUntil(2 * time.Second)
		res.c, res.mem = h.Counters(), dev.MemUsed()
		wantCalls, perStep := uint64(0), uint64(2)
		if sub.shell() {
			wantCalls = res.c.Steps
		}
		if sub.fused() {
			perStep = 1
		}
		if calls != wantCalls {
			t.Errorf("%v: RunNextStep ran %d times over %d steps, want %d — the wrong substrate",
				sub, calls, res.c.Steps, wantCalls)
		}
		if want := perStep * res.c.Steps; res.c.StepEvents != want {
			t.Errorf("%v: %d step events over %d steps, want %d", sub, res.c.StepEvents, res.c.Steps, want)
		}
		return res
	}
	ground := run(subShellUnfused)
	if ground.c.Steps == 0 || ground.exitAt < 0 {
		t.Fatalf("scripted life cycle ran %d steps and exited at %v", ground.c.Steps, ground.exitAt)
	}
	for _, sub := range allSubstrates[1:] {
		compareMidStepArms(t, fmt.Sprintf("%v vs %v", subShellUnfused, sub), ground, run(sub))
	}
}

// TestSteadyStateImperativeStepAllocFree pins the imperative step on the
// event loop over a device that can lead: a warmed eight-part step allocates
// nothing, and it reaches the device's two completion shortcuts — its host
// lead retires as the device's lone lead, and parts 2..8 are relaunched in
// place, through the Ctx as the client's part source.
func TestSteadyStateImperativeStepAllocFree(t *testing.T) {
	eng := simtime.NewVirtual()
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu0", NoTraces: true})
	h := NewImperativeHarness("imperative", fuseProfile, &imperativeAdapter{inner: fuseStepper{}}, 1)
	ctr := container.NewRuntime(simproc.NewRuntime(eng))
	if _, err := ctr.RunInline(container.Spec{Name: fuseProfile.Name, Device: dev}, h.Start); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(0, "init", func() {
		h.Deliver(Command{Transition: TransitionInit})
		h.Deliver(Command{Transition: TransitionStart, BubbleEnd: 1 << 62})
	})
	step := func() {
		for before := h.Counters().Steps; h.Counters().Steps == before; {
			if !eng.Step() {
				t.Fatal("engine ran dry before the next step completed")
			}
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	lone, inPlace := dev.Shortcuts()
	step()
	if l, n := dev.Shortcuts(); l-lone != 1 || n-inPlace != imperativeKernelParts-1 {
		t.Fatalf("a step took %d lone-lead and %d in-place shortcuts, want 1 and %d", l-lone, n-inPlace, imperativeKernelParts-1)
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("an imperative step allocates %.2f objects, want 0", allocs)
	}
}
