package sidetask

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"freeride/internal/container"
	"freeride/internal/model"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// fuseStepper is a minimal Stepper-capable task for the fusion boundary
// tests: no CPU work, one GiB of device memory, profile-shaped steps.
type fuseStepper struct{}

func (fuseStepper) CreateSideTask(*Ctx) error   { return nil }
func (fuseStepper) InitSideTask(ctx *Ctx) error { return ctx.GPU.AllocMem(model.GiB) }
func (fuseStepper) StopSideTask(ctx *Ctx) error { ctx.GPU.FreeMem(model.GiB); return nil }
func (fuseStepper) StepWork(*Ctx) error         { return nil }
func (fuseStepper) RunNextStep(ctx *Ctx) error {
	ctx.HostWork(ctx.Profile.HostOverhead)
	return ctx.ExecStepKernel()
}

// fuseProfile has a long host phase and a short kernel so scripted signals
// land deterministically inside one phase or the other. Demand 1 on a
// single client makes kernel wall time equal kernel duration exactly.
var fuseProfile = model.TaskProfile{
	Name:         "fuse-test",
	StepTime:     20 * time.Millisecond,
	HostOverhead: 50 * time.Millisecond,
	CreateTime:   100 * time.Millisecond,
	InitTime:     50 * time.Millisecond,
	MemBytes:     model.GiB,
	Demand:       1.0,
	Weight:       1.0,
}

// midStepSubstrate selects the execution arm of runMidStepRig: the goroutine
// shell or the event loop, each over a device that can lead (the fused,
// one-event step) or one that cannot (a host sleep, then the launch).
type midStepSubstrate int

const (
	subShellUnfused  midStepSubstrate = iota // goroutine shell, two-event step (ground truth)
	subShellFused                            // goroutine shell, HostWork as the kernel's host lead
	subInlineUnfused                         // event loop, two-event step form
	subInlineFused                           // event loop, fused host-lead step
)

// allSubstrates lists every arm, the ground truth first.
var allSubstrates = []midStepSubstrate{subShellUnfused, subShellFused, subInlineUnfused, subInlineFused}

func (s midStepSubstrate) shell() bool { return s == subShellUnfused || s == subShellFused }
func (s midStepSubstrate) fused() bool { return s == subShellFused || s == subInlineFused }

func (s midStepSubstrate) String() string {
	return [...]string{"shell-unfused", "shell-fused", "inline-unfused", "inline-fused"}[s]
}

// substrateDevice builds the arm's device. A step fuses exactly when the
// device can lead, so the two-event arms run on a device that cannot: a
// full-rebalance one, the only kind.
func substrateDevice(t *testing.T, eng *simtime.Virtual, sub midStepSubstrate) *simgpu.Device {
	t.Helper()
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu0", FullRebalance: !sub.fused()})
	if got, want := dev.LeadCapable(), sub.fused(); got != want {
		t.Fatalf("substrate %v: device LeadCapable = %v, want %v", sub, got, want)
	}
	return dev
}

// runOn deploys h on the arm's substrate.
func runOn(t *testing.T, ctrs *container.Runtime, spec container.Spec, h *Harness, sub midStepSubstrate) *container.Container {
	t.Helper()
	var cont *container.Container
	var err error
	if sub.shell() {
		cont, err = ctrs.Run(spec, h.Run)
	} else {
		if !h.CanInline() {
			t.Fatalf("%s (mode %v) should be inline-capable", h.Name(), h.Mode())
		}
		cont, err = ctrs.RunInline(spec, h.Start)
	}
	if err != nil {
		t.Fatalf("container: %v", err)
	}
	return cont
}

// requireUnfusedRan fails unless the two-event arm dispatched strictly more
// step events per step than the fused arm — the differentials below must
// never degenerate into fused-vs-fused.
func requireUnfusedRan(t *testing.T, what string, unfused, fused Counters) {
	t.Helper()
	if unfused.Steps == 0 || fused.Steps == 0 {
		t.Fatalf("%s: an arm ran no steps (unfused %d, fused %d)", what, unfused.Steps, fused.Steps)
	}
	if unfused.StepEvents*fused.Steps <= fused.StepEvents*unfused.Steps {
		t.Fatalf("%s: unfused arm dispatched %d events over %d steps, fused %d over %d — not the two-event loop",
			what, unfused.StepEvents, unfused.Steps, fused.StepEvents, fused.Steps)
	}
}

// midStepResult is one arm's full observable surface.
type midStepResult struct {
	events  []stateEvent
	c       Counters
	mem     int64
	exitAt  time.Duration
	exitErr error
}

// runMidStepRig drives a fuseStepper harness through a script whose pause
// commands land strictly INSIDE a step — at 330ms inside the host phase
// [300, 350) and at 675ms inside the kernel phase [670, 690) — the two
// windows the step-event fusion collapses into one engine event. fault arms
// a kernel fault before the first step's launch.
func runMidStepRig(t *testing.T, mode Mode, sub midStepSubstrate, fault bool) midStepResult {
	t.Helper()
	var faultAt time.Duration
	if fault {
		faultAt = 290 * time.Millisecond
	}
	return runMidStepRigFaultAt(t, mode, sub, faultAt, fuseStepper{})
}

// runMidStepRigFaultAt is runMidStepRig with the kernel fault armed at
// faultAt (0: no fault) and impl as the task.
func runMidStepRigFaultAt(t *testing.T, mode Mode, sub midStepSubstrate, faultAt time.Duration, impl Iterative) midStepResult {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := substrateDevice(t, eng, sub)
	ctr := container.NewRuntime(procs)
	var h *Harness
	if mode == ModeImperative {
		h = NewImperativeHarness("fuse-test", fuseProfile, &imperativeAdapter{inner: impl}, 1)
	} else {
		h = NewIterativeHarness("fuse-test", fuseProfile, impl, 1)
	}
	res := midStepResult{exitAt: -1}
	h.SetStateListener(func(s State) {
		res.events = append(res.events, stateEvent{State: s, At: eng.Now()})
	})
	spec := container.Spec{
		Name:        fuseProfile.Name,
		Device:      dev,
		GPUMemLimit: fuseProfile.MemBytes + model.GiB,
	}
	cont := runOn(t, ctr, spec, h, sub)
	cont.Process().OnExit(func(err error) {
		res.exitAt = eng.Now()
		res.exitErr = err
	})

	if faultAt > 0 {
		// Armed before the first step launches at 300ms, the fused launch
		// consumes it at the step start; armed at 320ms, inside the host phase
		// [300, 350), the pending lead takes it at its launch instant. The
		// unfused arms consume it at the host-sleep boundary either way — all
		// must deliver it there: at 350ms, or at the 600ms SIGCONT when the
		// 330ms SIGTSTP deferred the boundary.
		eng.Schedule(faultAt, "arm-fault", func() {
			dev.InjectKernelFault("")
		})
	}
	eng.Schedule(200*time.Millisecond, "init", func() {
		h.Deliver(Command{Transition: TransitionInit})
	})
	eng.Schedule(300*time.Millisecond, "start", func() {
		h.Deliver(Command{Transition: TransitionStart, BubbleEnd: eng.Now() + 500*time.Millisecond})
	})
	// Pause inside the host phase of the step that started at 300ms.
	eng.Schedule(330*time.Millisecond, "pause-in-host", func() {
		if mode == ModeImperative {
			if cont.Alive() {
				cont.Stop()
			}
		} else {
			h.Deliver(Command{Transition: TransitionPause})
		}
	})
	eng.Schedule(600*time.Millisecond, "resume", func() {
		if mode == ModeImperative {
			if cont.Alive() {
				cont.Cont()
			}
		} else {
			h.Deliver(Command{Transition: TransitionStart, BubbleEnd: eng.Now() + 300*time.Millisecond})
		}
	})
	// For the imperative arm the deferred host wake lands at 600ms, so the
	// resumed step runs host 600–620 (the held remainder collapses to the
	// release boundary), kernel 620–640, host 640–690... the 675ms signal
	// lands inside a kernel phase: the in-flight kernel must run through the
	// pause in every arm (asynchronous-kernel semantics, paper §5).
	eng.Schedule(675*time.Millisecond, "pause-in-kernel", func() {
		if mode == ModeImperative {
			if cont.Alive() {
				cont.Stop()
			}
		} else {
			h.Deliver(Command{Transition: TransitionPause})
		}
	})
	eng.Schedule(700*time.Millisecond, "resume2", func() {
		if mode == ModeImperative {
			if cont.Alive() {
				cont.Cont()
			}
		} else {
			h.Deliver(Command{Transition: TransitionStart, BubbleEnd: eng.Now() + 200*time.Millisecond})
		}
	})
	eng.Schedule(900*time.Millisecond, "stop", func() {
		if mode == ModeImperative && cont.Process().Stopped() {
			cont.Cont()
		}
		h.Deliver(Command{Transition: TransitionStop})
		if mode == ModeImperative {
			eng.ScheduleDetached(500*time.Millisecond, "stop-kill", func() {
				if cont.Alive() {
					cont.Kill()
				}
			})
		}
	})
	eng.RunUntil(2 * time.Second)
	res.c = h.Counters()
	res.mem = dev.MemUsed()
	return res
}

// compareMidStepArms asserts two arms are bit-identical on every observable:
// state transitions with timestamps, counters (modulo the StepEvents
// substrate accounting), device memory, and the exit instant and error.
func compareMidStepArms(t *testing.T, what string, a, b midStepResult) {
	t.Helper()
	if !reflect.DeepEqual(a.events, b.events) {
		t.Errorf("%s: state transitions diverge:\n%+v\nvs\n%+v", what, a.events, b.events)
	}
	ac, bc := a.c, b.c
	ac.StepEvents, bc.StepEvents = 0, 0
	if ac != bc {
		t.Errorf("%s: counters diverge:\n%+v\nvs\n%+v", what, ac, bc)
	}
	if a.mem != b.mem {
		t.Errorf("%s: device memory diverges: %d vs %d", what, a.mem, b.mem)
	}
	if a.exitAt != b.exitAt {
		t.Errorf("%s: exit instants diverge: %v vs %v", what, a.exitAt, b.exitAt)
	}
	aerr, berr := "", ""
	if a.exitErr != nil {
		aerr = a.exitErr.Error()
	}
	if b.exitErr != nil {
		berr = b.exitErr.Error()
	}
	if aerr != berr {
		t.Errorf("%s: exit errors diverge: %q vs %q", what, aerr, berr)
	}
}

// TestMidStepPauseEquivalence pins the fused Pause/Stop boundary: signals
// landing inside the host phase and inside the kernel phase must produce
// bit-identical lifecycles on all four arms — both interfaces.
func TestMidStepPauseEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeIterative, ModeImperative} {
		var arms [4]midStepResult
		for _, sub := range allSubstrates {
			arms[sub] = runMidStepRig(t, mode, sub, false)
		}
		if arms[subShellUnfused].c.Steps == 0 {
			t.Fatalf("mode %v: scripted lifecycle ran no steps", mode)
		}
		requireUnfusedRan(t, mode.String()+" shell", arms[subShellUnfused].c, arms[subShellFused].c)
		requireUnfusedRan(t, mode.String()+" inline", arms[subInlineUnfused].c, arms[subInlineFused].c)
		for _, sub := range allSubstrates[1:] {
			compareMidStepArms(t, fmt.Sprintf("%v: %v vs %v", mode, subShellUnfused, sub), arms[subShellUnfused], arms[sub])
		}
	}
}

// TestFusedStepFaultEquivalence injects a kernel fault into the first fused
// launch — armed before the step starts, and armed while its host lead is
// pending: either way the fused arms must deliver it at the host-phase
// boundary — the same instant, same error, same exit as both unfused arms,
// in both interfaces.
func TestFusedStepFaultEquivalence(t *testing.T) {
	for _, faultAt := range []time.Duration{290 * time.Millisecond, 320 * time.Millisecond} {
		for _, mode := range []Mode{ModeIterative, ModeImperative} {
			what := fmt.Sprintf("%v fault@%v", mode, faultAt)
			ground := runMidStepRigFaultAt(t, mode, subShellUnfused, faultAt, fuseStepper{})
			if ground.exitErr == nil {
				t.Fatalf("%s: injected fault produced no error exit", what)
			}
			if ground.c.Steps != 0 {
				t.Fatalf("%s: the faulted first step completed on the shell (%d steps)", what, ground.c.Steps)
			}
			for _, sub := range allSubstrates[1:] {
				got := runMidStepRigFaultAt(t, mode, sub, faultAt, fuseStepper{})
				compareMidStepArms(t, fmt.Sprintf("%s: %v vs %v", what, subShellUnfused, sub), ground, got)
			}
		}
	}
}

// TestFusedEventsPerStep pins the step accounting: a fused arm — the event
// loop or the shell over a lead-capable device — dispatches kernelParts
// engine events per step (ONE for the paper's single-kernel iterative
// steps), an unfused one kernelParts+1.
func TestFusedEventsPerStep(t *testing.T) {
	for _, tc := range []struct {
		mode  Mode
		parts uint64
	}{
		{ModeIterative, 1},
		{ModeImperative, imperativeKernelParts},
	} {
		for _, sub := range allSubstrates {
			res := runMidStepRig(t, tc.mode, sub, false)
			want := tc.parts * res.c.Steps
			if !sub.fused() {
				want += res.c.Steps
			}
			if res.c.StepEvents != want {
				t.Errorf("mode %v, %v: StepEvents = %d over %d steps, want %d",
					tc.mode, sub, res.c.StepEvents, res.c.Steps, want)
			}
		}
	}
}

// TestStepKernelPartsSumToJitteredDuration is the remainder-loss regression
// pin at the unit level: with parts=3 and a jittered (usually non-divisible)
// duration, the last part must absorb the integer-division remainder so the
// parts sum exactly to the step duration.
func TestStepKernelPartsSumToJitteredDuration(t *testing.T) {
	prof := fuseProfile
	prof.StepJitter = 0.3
	h := NewIterativeHarness("rem", prof, fuseStepper{}, 7)
	h.kernelParts = 3
	c := &Ctx{Profile: prof, Rng: rand.New(rand.NewSource(7)), h: h}
	sawRemainder := false
	for i := 0; i < 200; i++ {
		c.beginKernels()
		stepDur := h.lastStepDur
		if got := 2*c.perKernel + c.lastKernel; got != stepDur {
			t.Fatalf("parts sum to %v, want %v (per=%v last=%v)", got, stepDur, c.perKernel, c.lastKernel)
		}
		if stepDur%3 != 0 {
			sawRemainder = true
			if c.lastKernel == c.perKernel {
				t.Fatalf("non-divisible %v: last part %v equals per-part %v; remainder dropped",
					stepDur, c.lastKernel, c.perKernel)
			}
		}
	}
	if !sawRemainder {
		t.Fatal("jittered durations never produced a remainder; pin is inert")
	}
}

// TestKernelPartsRemainderEndToEnd pins the remainder fix through the real
// device clock: with a step duration of 10000001ns split into 3 kernels, the
// measured per-step kernel wall time must equal the duration exactly (the
// old division-truncated parts lost 2ns per step). Demand 1 on an otherwise
// idle device makes wall time equal duration.
func TestKernelPartsRemainderEndToEnd(t *testing.T) {
	prof := fuseProfile
	prof.StepTime = 10000001 * time.Nanosecond // % 3 == 2
	var arms [4]Counters
	for _, sub := range allSubstrates {
		eng := simtime.NewVirtual()
		procs := simproc.NewRuntime(eng)
		dev := substrateDevice(t, eng, sub)
		ctr := container.NewRuntime(procs)
		h := NewIterativeHarness("rem-e2e", prof, fuseStepper{}, 1)
		h.kernelParts = 3
		spec := container.Spec{
			Name:        prof.Name,
			Device:      dev,
			GPUMemLimit: prof.MemBytes + model.GiB,
		}
		runOn(t, ctr, spec, h, sub)
		eng.Schedule(200*time.Millisecond, "init", func() {
			h.Deliver(Command{Transition: TransitionInit})
		})
		eng.Schedule(300*time.Millisecond, "start", func() {
			h.Deliver(Command{Transition: TransitionStart, BubbleEnd: eng.Now() + 500*time.Millisecond})
		})
		eng.Schedule(900*time.Millisecond, "stop", func() {
			h.Deliver(Command{Transition: TransitionStop})
		})
		eng.RunUntil(2 * time.Second)
		c := h.Counters()
		arms[sub] = c
		if c.Steps == 0 {
			t.Fatalf("substrate %v: ran no steps", sub)
		}
		if want := time.Duration(c.Steps) * prof.StepTime; c.KernelTime != want {
			t.Errorf("substrate %v: KernelTime = %v over %d steps, want exactly %v (remainder lost)",
				sub, c.KernelTime, c.Steps, want)
		}
	}
	requireUnfusedRan(t, "remainder, shell", arms[subShellUnfused], arms[subShellFused])
	requireUnfusedRan(t, "remainder, inline", arms[subInlineUnfused], arms[subInlineFused])
}

// TestImperativeKernelTimeJittered pins the second satellite bugfix: the
// imperative step accounting must charge the jittered duration the step
// actually issued, not the nominal profile StepTime (ResNet18 runs with 10%
// step jitter, so over the scripted run the two must differ).
func TestImperativeKernelTimeJittered(t *testing.T) {
	_, c, _ := runScriptedLifecycle(t, ModeImperative, true)
	if c.Steps == 0 {
		t.Fatal("scripted lifecycle ran no steps")
	}
	if c.KernelTime == time.Duration(c.Steps)*model.ResNet18.StepTime {
		t.Fatalf("KernelTime = %v over %d steps equals the nominal charge; StepJitter ignored",
			c.KernelTime, c.Steps)
	}
}
