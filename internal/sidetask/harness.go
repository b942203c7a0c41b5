package sidetask

import (
	"fmt"
	"math/rand"
	"time"

	"freeride/internal/model"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// Mode selects the programming interface a task uses.
type Mode int

// Programming interfaces (paper §4.2).
const (
	// ModeIterative is the preferred, step-wise interface with the
	// program-directed execution-time limit.
	ModeIterative Mode = iota + 1
	// ModeImperative is the fallback RunGpuWorkload interface, paused and
	// resumed transparently with signals at a higher overhead.
	ModeImperative
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeIterative:
		return "iterative"
	case ModeImperative:
		return "imperative"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Ctx is what user task code sees: the simulated process, the GPU client,
// the task profile and helpers for charging GPU work.
type Ctx struct {
	Proc    *simproc.Process
	GPU     *simgpu.Client
	Profile model.TaskProfile
	Rng     *rand.Rand

	h *Harness
	// spec is the reusable step-kernel spec, threaded by pointer through
	// every launch: the kernel keeps the pointer, so a spec built per step
	// escapes to the heap. Only Duration changes, between launches (see
	// simgpu.KernelSpec). The step's remaining kernels are partsLeft-1 of
	// perKernel and a final lastKernel.
	spec                  simgpu.KernelSpec
	partsLeft             int
	perKernel, lastKernel time.Duration
}

// newCtx builds the task's context for either substrate. A step's host
// overhead rides its first kernel as a host lead: kernelParts engine events
// per step where the device can lead, one more (the host sleep) elsewhere.
func (h *Harness) newCtx(p *simproc.Process, gpu *simgpu.Client) *Ctx {
	h.stepEvents = uint64(h.kernelParts) + 1
	if gpu != nil {
		if gpu.Device().LeadCapable() {
			h.stepEvents--
		}
		// A lead must observe SIGTSTP exactly where a host sleep would: hold
		// a still-pending host lead on stop (a kernel already past its lead
		// keeps running through the pause, like an asynchronous CUDA kernel),
		// and release it on continue so the remaining host phase resumes from
		// the stop instant. Both are no-ops without a pending lead.
		p.SetSignalHook(func(sig simproc.Signal) {
			switch sig {
			case simproc.SigStop:
				gpu.HoldLead()
			case simproc.SigCont:
				gpu.ReleaseLead()
			}
		})
	}
	return &Ctx{
		Proc:    p,
		GPU:     gpu,
		Profile: h.profile,
		Rng:     rand.New(rand.NewSource(h.seed)),
		h:       h,
		spec: simgpu.KernelSpec{
			Name:   h.stepKernelName,
			Demand: h.profile.Demand,
			Weight: h.profile.Weight,
		},
	}
}

// ExecStepKernel charges one profile-shaped step's GPU work (with jitter)
// to the simulated device and blocks until it completes. Under the
// imperative interface the step is issued as several consecutive kernels:
// a SIGTSTP then takes effect at the next kernel boundary, so only the
// in-flight *kernel* — not the whole step — drains past a pause, exactly
// the asynchronous-kernel behaviour of paper §5.
func (c *Ctx) ExecStepKernel() error {
	for c.beginKernels(); c.NextPart() != nil; {
		if err := c.GPU.Exec(c.Proc, &c.spec); err != nil {
			return err
		}
	}
	return nil
}

// beginKernels plans the step's kernels (Harness.drawStep).
func (c *Ctx) beginKernels() {
	c.perKernel, c.lastKernel = c.h.drawStep(c.Rng)
	c.partsLeft = c.h.kernelParts
}

// NextPart points spec at the step's next kernel and returns it, or returns
// nil once all of them have been issued. On the event loop it is the
// client's part source too (simgpu.PartSource), which relaunches a part as
// afterKernel would. Task code does not call it.
func (c *Ctx) NextPart() *simgpu.KernelSpec {
	if c.partsLeft == 0 {
		return nil
	}
	c.spec.Duration = c.perKernel
	if c.partsLeft == 1 {
		c.spec.Duration = c.lastKernel
	}
	c.partsLeft--
	return &c.spec
}

// HostWork models CPU-side time (data loading, the interface loop) as a
// deferred sleep (simproc.Process.DeferSleep) that the next ExecStepKernel
// or GPU.Exec takes as its kernel's host lead: one engine event, as an
// inline step. Code between HostWork and the body's next blocking call or
// clock read runs at the start of the host phase, as StepWork does.
func (c *Ctx) HostWork(d time.Duration) { c.Proc.DeferSleep(d) }

// Iterative is the user-facing iterative interface (paper Figure 6): the
// programmer overrides the state-transition bodies; the harness owns the
// state machine, the communication with the worker and the
// program-directed time limit.
type Iterative interface {
	// CreateSideTask loads the task context into host memory.
	CreateSideTask(ctx *Ctx) error
	// InitSideTask loads the context into GPU memory (AllocMem here).
	InitSideTask(ctx *Ctx) error
	// RunNextStep executes one step (one batch / one iteration / one
	// image).
	RunNextStep(ctx *Ctx) error
	// StopSideTask releases resources before termination.
	StopSideTask(ctx *Ctx) error
}

// Imperative is the fallback interface (paper §4.2): one monolithic body;
// pausing happens via signals outside the task's control.
type Imperative interface {
	CreateSideTask(ctx *Ctx) error
	InitSideTask(ctx *Ctx) error
	// RunGpuWorkload runs the whole workload; it should loop
	// ctx.ExecStepKernel (or equivalent) until done.
	RunGpuWorkload(ctx *Ctx) error
}

// Stepper marks an Iterative implementation whose RunNextStep is exactly
//
//	ctx.HostWork(profile.HostOverhead); <CPU work>; ctx.ExecStepKernel()
//
// with the CPU work exposed as StepWork. Such tasks run on the engine event
// loop with no process goroutine: the harness itself schedules the host time
// and the step kernel around StepWork, so a step costs zero goroutine
// switches and zero allocations. Implementations must keep CreateSideTask,
// InitSideTask, StopSideTask and StepWork non-blocking (no Ctx.HostWork /
// Ctx.ExecStepKernel / GPU.Exec calls — memory AllocMem/FreeMem are fine).
// The harness calls StepWork on the event loop, so a user body may read its
// Ctx. All built-in tasks implement it; theirs runs the arithmetic a bounded
// run of steps ahead on the task's own goroutine — up to runAheadDepth, one
// without a spare core (builtinTask.StepWork).
type Stepper interface {
	StepWork(ctx *Ctx) error
}

// Command is a state-transition order from the worker.
type Command struct {
	Transition Transition
	// BubbleEnd accompanies TransitionStart: the program-directed
	// mechanism refuses to begin a step that cannot finish by this time
	// (paper §4.5).
	BubbleEnd time.Duration
}

// Counters is the harness bookkeeping used by the Figure-9 breakdown.
type Counters struct {
	Steps       uint64
	KernelTime  time.Duration // GPU time of completed steps
	HostTime    time.Duration // interface + host-side time
	InsuffWait  time.Duration // RUNNING time skipped by the time limit
	LastPaused  time.Duration // timestamp of the last acknowledged pause
	StartedRuns uint64        // number of StartSideTask transitions
	// StepEvents is the nominal count of engine events the step loop spends
	// on the completed steps, as a loop that folds no completion spends them:
	// kernelParts per step over a device that can lead, on either substrate,
	// kernelParts+1 (the host-overhead sleep) otherwise. A lone completion the
	// device folds into the one before it (simgpu.Device.FusedFolds) is
	// counted here all the same, so this is not what the engine dispatched
	// (simtime.Virtual.Dispatched). On the shell it assumes the
	// Stepper-shaped step (HostWork, then the kernels). The bench report's
	// sidetask_events_per_step is StepEvents/Steps.
	StepEvents uint64
}

// Harness runs one side task inside its container process: it owns the
// state machine and mailbox, and calls into the user implementation.
type Harness struct {
	name    string
	mode    Mode
	profile model.TaskProfile
	iter    Iterative
	imper   Imperative
	seed    int64

	inbox *simproc.Mailbox[Command]

	state     State
	bubbleEnd time.Duration
	counters  Counters
	onState   func(State)

	// kernelParts is how many consecutive kernels one step issues
	// (imperative mode uses several, giving SIGTSTP kernel-granular
	// effect; immutable after construction).
	kernelParts int
	// stepKernelName is the precomputed step-kernel label (millions of
	// launches per run; the concat must not happen per step).
	stepKernelName string
	// lastStepDur is the most recent jittered step duration drawStep issued;
	// the imperative interface charges it to KernelTime (see stepDone).
	lastStepDur time.Duration
	// stepEvents is what one completed step adds to Counters.StepEvents on
	// the substrate the harness was started on.
	stepEvents uint64
}

// NewIterativeHarness wraps an Iterative implementation.
func NewIterativeHarness(name string, profile model.TaskProfile, impl Iterative, seed int64) *Harness {
	return &Harness{
		name: name, mode: ModeIterative, profile: profile, iter: impl,
		seed: seed, inbox: simproc.NewMailbox[Command](), state: StateSubmitted,
		kernelParts:    1,
		stepKernelName: profile.Name + "-step",
	}
}

// NewImperativeHarness wraps an Imperative implementation.
func NewImperativeHarness(name string, profile model.TaskProfile, impl Imperative, seed int64) *Harness {
	return &Harness{
		name: name, mode: ModeImperative, profile: profile, imper: impl,
		seed: seed, inbox: simproc.NewMailbox[Command](), state: StateSubmitted,
		kernelParts:    imperativeKernelParts,
		stepKernelName: profile.Name + "-step",
	}
}

// imperativeKernelParts is how many kernels an imperative step issues: real
// GPU steps comprise many kernel launches, so a SIGTSTP drains only a
// fraction of a step.
const imperativeKernelParts = 8

// Name reports the task name.
func (h *Harness) Name() string { return h.name }

// Mode reports the interface kind.
func (h *Harness) Mode() Mode { return h.mode }

// Profile reports the task profile.
func (h *Harness) Profile() model.TaskProfile { return h.profile }

// State reports the current life-cycle state (the worker polls it for
// IsCreated/IsPaused, paper Alg. 2 lines 16–19).
func (h *Harness) State() State {
	return h.state
}

// Counters returns a snapshot of the bookkeeping counters.
func (h *Harness) Counters() Counters {
	return h.counters
}

// Deliver sends a state-transition command to the harness (worker side).
func (h *Harness) Deliver(cmd Command) { h.inbox.Send(cmd) }

// Restore seeds the harness's progress counters from a checkpoint before it
// starts: a task re-placed after a worker failure resumes from its last
// checkpointed step rather than from zero. Work-progress counters carry
// over; run-local bookkeeping (LastPaused, StartedRuns) starts fresh with
// the new incarnation. Call before the harness runs.
func (h *Harness) Restore(c Counters) {
	h.counters.Steps = c.Steps
	h.counters.KernelTime = c.KernelTime
	h.counters.HostTime = c.HostTime
	h.counters.InsuffWait = c.InsuffWait
	h.counters.StepEvents = c.StepEvents
}

// BindEngine does nothing: a harness takes no lock, so there is nothing to
// tie to eng. It remains for existing callers.
func (*Harness) BindEngine(eng *simtime.Virtual) {}

// SetStateListener installs a callback fired on every state change, from
// the task process's context. The worker uses it to keep the manager's
// cached task states in sync without polling.
func (h *Harness) SetStateListener(fn func(State)) {
	h.onState = fn
}

func (h *Harness) setState(s State, now time.Duration) {
	if s == StatePaused && h.state == StateRunning {
		h.counters.LastPaused = now
	}
	h.state = s
	fn := h.onState
	if fn != nil {
		fn(s)
	}
}

// Run is the goroutine-shell container body: it executes the full life
// cycle through the blocking primitives and returns when the task is stopped
// (or its process is killed / hits an OOM).
func (h *Harness) Run(p *simproc.Process, gpu *simgpu.Client) error {
	ctx := h.newCtx(p, gpu)
	// The life-cycle sleeps are eager, as inlineRun's SleepThen: a deferred
	// InitTime would let InitSideTask's AllocMem act at the phase's start.
	p.Sleep(h.profile.CreateTime)
	if err := h.created(ctx); err != nil {
		return err
	}
	for act := actRecv; ; {
		switch act {
		case actRecv:
			cmd, ok := h.inbox.Recv(p)
			if !ok {
				return h.closedErr()
			}
			act = h.command(cmd, p.Now())
		case actInit:
			p.Sleep(h.profile.InitTime)
			if err := h.initialized(ctx); err != nil {
				return err
			}
			act = actRecv
		case actStep:
			if h.mode == ModeImperative {
				// The imperative body runs to completion; pause/resume happen
				// via SIGTSTP/SIGCONT outside our control (paper §4.2).
				return h.runEnded(h.imper.RunGpuWorkload(ctx), p.Now())
			}
			start := p.Now()
			if err := h.iter.RunNextStep(ctx); err != nil {
				return h.runEnded(err, p.Now())
			}
			h.stepDone(p.Now() - start)
			act = h.head(p.Now())
		case actStop:
			return h.stopTask(ctx)
		}
	}
}
