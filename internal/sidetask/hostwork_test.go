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

// shellBody is a user task whose step is a function, so it runs on the
// goroutine shell only. log collects what the step reads off the clock.
type shellBody struct {
	step func(b *shellBody, ctx *Ctx) error
	log  []time.Duration
}

func (*shellBody) CreateSideTask(*Ctx) error    { return nil }
func (*shellBody) InitSideTask(ctx *Ctx) error  { return ctx.GPU.AllocMem(model.GiB) }
func (*shellBody) StopSideTask(ctx *Ctx) error  { ctx.GPU.FreeMem(model.GiB); return nil }
func (b *shellBody) RunNextStep(ctx *Ctx) error { return b.step(b, ctx) }

// steadyShell runs impl on the goroutine shell in a bubble that never ends,
// over a device that can lead or (full) one that cannot, and returns the
// engine and a function that runs it to the end of the next step, already
// called eight times to warm the rig.
func steadyShell(t *testing.T, impl Iterative, full bool) (*simtime.Virtual, func()) {
	t.Helper()
	eng := simtime.NewVirtual()
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu0", NoTraces: true, FullRebalance: full})
	h := NewIterativeHarness("fuse-test", fuseProfile, impl, 1)
	ctr := container.NewRuntime(simproc.NewRuntime(eng))
	if _, err := ctr.Run(container.Spec{Name: fuseProfile.Name, Device: dev}, h.Run); err != nil {
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
	return eng, step
}

// eventsPerStep measures the engine events n steady steps dispatch.
func eventsPerStep(eng *simtime.Virtual, step func(), n int) float64 {
	before := eng.Dispatched()
	for i := 0; i < n; i++ {
		step()
	}
	return float64(eng.Dispatched()-before) / float64(n)
}

// TestSteadyStateShellStepEvents measures, on the engine rather than through
// the StepEvents formula, what a shell step written against the blocking
// interface (HostWork, then ExecStepKernel) costs: one engine event on a
// device that can lead — the HostWork sleep rides the kernel as its host
// lead — and two (the sleep, then the completion) on one that cannot.
func TestSteadyStateShellStepEvents(t *testing.T) {
	for _, tc := range []struct {
		full bool
		want float64
	}{{false, 1}, {true, 2}} {
		eng, step := steadyShell(t, struct{ Iterative }{fuseStepper{}}, tc.full)
		if got := eventsPerStep(eng, step, 100); got != tc.want {
			t.Errorf("FullRebalance %v: %v engine events per shell step, want %v", tc.full, got, tc.want)
		}
	}
}

// TestSteadyStateShellStepAllocFree pins the goroutine shell's step loop on
// both device kinds: a warmed RunNextStep written against the blocking
// interface allocates nothing — the step-kernel spec lives on the Ctx, not on
// the heap once per step, and the deferred HostWork sleep is a field of the
// process.
func TestSteadyStateShellStepAllocFree(t *testing.T) {
	for _, full := range []bool{false, true} {
		_, step := steadyShell(t, struct{ Iterative }{fuseStepper{}}, full)
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Errorf("FullRebalance %v: a goroutine-shell step allocates %.1f objects, want 0", full, allocs)
		}
	}
}

// TestDeferredHostPhase pins where a shell body's deferred HostWork sleep is
// spent, one body per case: each must behave on a device that can lead
// exactly as on one that cannot, where every phase is a plain sleep — the
// same state transitions at the same instants, counters, device memory, exit
// instant and error, under the mid-step pause script in both interfaces, and
// the same clock reads. Only a phase that reaches a kernel launch fuses,
// which the steady-state event counts show.
func TestDeferredHostPhase(t *testing.T) {
	direct := &simgpu.KernelSpec{Name: "direct", Duration: 20 * time.Millisecond, Demand: 1, Weight: 1}
	for _, tc := range []struct {
		name string
		step func(b *shellBody, ctx *Ctx) error
		// engine events per steady step on a lead-capable device and on a
		// FullRebalance one
		fused, unfused float64
	}{
		{"HostWork twice", func(_ *shellBody, ctx *Ctx) error {
			ctx.HostWork(20 * time.Millisecond) // spent by the second
			ctx.HostWork(30 * time.Millisecond) // the kernel's lead
			return ctx.ExecStepKernel()
		}, 2, 3},
		{"HostWork then Sleep", func(_ *shellBody, ctx *Ctx) error {
			ctx.HostWork(30 * time.Millisecond)
			ctx.Proc.Sleep(20 * time.Millisecond)
			return ctx.ExecStepKernel()
		}, 3, 3},
		{"HostWork then Now", func(b *shellBody, ctx *Ctx) error {
			ctx.HostWork(50 * time.Millisecond)
			b.log = append(b.log, ctx.Proc.Now())
			return ctx.ExecStepKernel()
		}, 2, 2},
		{"HostWork then return", func(_ *shellBody, ctx *Ctx) error {
			ctx.HostWork(50 * time.Millisecond)
			return nil
		}, 1, 1},
		{"HostWork(0)", func(_ *shellBody, ctx *Ctx) error {
			ctx.HostWork(0) // still yields
			ctx.HostWork(50 * time.Millisecond)
			return ctx.ExecStepKernel()
		}, 2, 3},
		{"HostWork then GPU.Exec", func(_ *shellBody, ctx *Ctx) error {
			ctx.HostWork(50 * time.Millisecond)
			return ctx.GPU.Exec(ctx.Proc, direct)
		}, 1, 2},
	} {
		for _, mode := range []Mode{ModeIterative, ModeImperative} {
			what := fmt.Sprintf("%s, %v", tc.name, mode)
			ground := &shellBody{step: tc.step}
			fused := &shellBody{step: tc.step}
			g := runMidStepRigFaultAt(t, mode, subShellUnfused, 0, ground)
			f := runMidStepRigFaultAt(t, mode, subShellFused, 0, fused)
			if g.c.Steps == 0 {
				t.Fatalf("%s: scripted lifecycle ran no steps", what)
			}
			compareMidStepArms(t, what, g, f)
			if !reflect.DeepEqual(ground.log, fused.log) {
				t.Errorf("%s: clock reads diverge:\n%v\nvs\n%v", what, ground.log, fused.log)
			}
		}
		for _, arm := range []struct {
			full bool
			want float64
		}{{false, tc.fused}, {true, tc.unfused}} {
			eng, step := steadyShell(t, &shellBody{step: tc.step}, arm.full)
			if got := eventsPerStep(eng, step, 50); got != arm.want {
				t.Errorf("%s, FullRebalance %v: %v engine events per step, want %v", tc.name, arm.full, got, arm.want)
			}
		}
	}
}
