package sidetask

import (
	"errors"
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
	// spec is the reusable step-kernel spec: the kernel keeps the pointer,
	// so a spec built per step escapes to the heap; Exec has returned before
	// ExecStepKernel writes it again.
	spec simgpu.KernelSpec
}

// ExecStepKernel charges one profile-shaped step's GPU work (with jitter)
// to the simulated device and blocks until it completes. Under the
// imperative interface the step is issued as several consecutive kernels:
// a SIGTSTP then takes effect at the next kernel boundary, so only the
// in-flight *kernel* — not the whole step — drains past a pause, exactly
// the asynchronous-kernel behaviour of paper §5.
func (c *Ctx) ExecStepKernel() error {
	d := c.Profile.StepTime
	if c.Profile.StepJitter > 0 {
		f := 1 + c.Profile.StepJitter*(2*c.Rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	c.h.mu.Lock()
	c.h.lastStepDur = d
	c.h.mu.Unlock()
	parts := c.h.kernelParts
	if parts < 1 {
		parts = 1
	}
	// Integer division drops up to parts-1 ns of the jittered duration; the
	// last part absorbs the remainder so the parts sum exactly to d.
	per := d / time.Duration(parts)
	last := d - time.Duration(parts-1)*per
	c.spec = simgpu.KernelSpec{
		Name:   c.h.stepKernelName,
		Demand: c.Profile.Demand,
		Weight: c.Profile.Weight,
	}
	for i := 0; i < parts; i++ {
		c.spec.Duration = per
		if i == parts-1 {
			c.spec.Duration = last
		}
		if err := c.GPU.Exec(c.Proc, &c.spec); err != nil {
			return err
		}
	}
	return nil
}

// HostWork models CPU-side time (data loading, the interface loop).
func (c *Ctx) HostWork(d time.Duration) { c.Proc.Sleep(d) }

// Steps reports completed steps so far.
func (c *Ctx) Steps() int { return int(c.h.Counters().Steps) }

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
// All built-in tasks implement it.
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
	// StepEvents counts the engine events the step loop dispatched for the
	// completed steps: kernelParts per fused inline step, kernelParts+1
	// (the separate host-overhead sleep) otherwise. The bench report's
	// sidetask_events_per_step metric is StepEvents/Steps.
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

	// mu rides the engine ownership regime once BindEngine is called (the
	// worker binds each deployed harness to its engine at create time);
	// unbound harnesses (tests, ad-hoc rigs) keep a real mutex.
	mu        simtime.Guard
	state     State
	bubbleEnd time.Duration
	counters  Counters
	// stepEstimate is the profiled per-step duration the program-directed
	// check uses; the automated profiler fills it (paper §4.3).
	stepEstimate time.Duration
	onState      func(State)

	// kernelParts is how many consecutive kernels one step issues
	// (imperative mode uses several, giving SIGTSTP kernel-granular
	// effect; immutable after construction).
	kernelParts int
	// stepKernelName is the precomputed step-kernel label (millions of
	// launches per run; the concat must not happen per step).
	stepKernelName string
	// lastStepDur is the most recent jittered step duration ExecStepKernel
	// issued; the imperative adapter charges it to KernelTime so jittered
	// profiles don't drift from the simulated work.
	lastStepDur time.Duration
}

// NewIterativeHarness wraps an Iterative implementation.
func NewIterativeHarness(name string, profile model.TaskProfile, impl Iterative, seed int64) *Harness {
	return &Harness{
		name: name, mode: ModeIterative, profile: profile, iter: impl,
		seed: seed, inbox: simproc.NewMailbox[Command](), state: StateSubmitted,
		stepEstimate:   profile.StepTime + profile.HostOverhead,
		kernelParts:    1,
		stepKernelName: profile.Name + "-step",
	}
}

// NewImperativeHarness wraps an Imperative implementation.
func NewImperativeHarness(name string, profile model.TaskProfile, impl Imperative, seed int64) *Harness {
	return &Harness{
		name: name, mode: ModeImperative, profile: profile, imper: impl,
		seed: seed, inbox: simproc.NewMailbox[Command](), state: StateSubmitted,
		stepEstimate:   profile.StepTime + profile.HostOverhead,
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

// State reports the current life-cycle state (thread-safe; the worker polls
// it for IsCreated/IsPaused, paper Alg. 2 lines 16–19).
func (h *Harness) State() State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Counters returns a snapshot of the bookkeeping counters.
func (h *Harness) Counters() Counters {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counters
}

// SetStepEstimate overrides the per-step duration used by the
// program-directed limit (the automated profiler calls this).
func (h *Harness) SetStepEstimate(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d > 0 {
		h.stepEstimate = d
	}
}

// Deliver sends a state-transition command to the harness (worker side).
func (h *Harness) Deliver(cmd Command) { h.inbox.Send(cmd) }

// Restore seeds the harness's progress counters from a checkpoint before it
// starts: a task re-placed after a worker failure resumes from its last
// checkpointed step rather than from zero. Work-progress counters carry
// over; run-local bookkeeping (LastPaused, StartedRuns) starts fresh with
// the new incarnation. Call before the harness runs.
func (h *Harness) Restore(c Counters) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counters.Steps = c.Steps
	h.counters.KernelTime = c.KernelTime
	h.counters.HostTime = c.HostTime
	h.counters.InsuffWait = c.InsuffWait
	h.counters.StepEvents = c.StepEvents
}

// BindEngine ties the harness's lock and inbox to eng's ownership regime
// (see simtime.Guard): free in single-owner simulations, real mutexes once
// the engine escalates. The deployer calls it right after construction,
// before the harness is started or shared.
func (h *Harness) BindEngine(eng simtime.Engine) {
	h.mu.Bind(eng)
	h.inbox.Bind(eng)
}

// SetStateListener installs a callback fired on every state change, from
// the task process's context. The worker uses it to keep the manager's
// cached task states in sync without polling.
func (h *Harness) SetStateListener(fn func(State)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.onState = fn
}

func (h *Harness) setState(s State, now time.Duration) {
	h.mu.Lock()
	if s == StatePaused && h.state == StateRunning {
		h.counters.LastPaused = now
	}
	h.state = s
	fn := h.onState
	h.mu.Unlock()
	if fn != nil {
		fn(s)
	}
}

// errStopped unwinds the run loop on TransitionStop.
var errStopped = errors.New("sidetask: stopped")

// Run is the container body: it executes the full life cycle and returns
// when the task is stopped (or its process is killed / hits an OOM).
func (h *Harness) Run(p *simproc.Process, gpu *simgpu.Client) error {
	ctx := &Ctx{
		Proc:    p,
		GPU:     gpu,
		Profile: h.profile,
		Rng:     rand.New(rand.NewSource(h.seed)),
		h:       h,
	}

	// SUBMITTED -> CREATED: load context into host memory.
	ctx.HostWork(h.profile.CreateTime)
	if err := h.create(ctx); err != nil {
		return fmt.Errorf("sidetask %s: create: %w", h.name, err)
	}
	h.setState(StateCreated, p.Now())

	err := h.commandLoop(ctx)
	if errors.Is(err, errStopped) {
		return nil
	}
	return err
}

// commandLoop processes worker commands until stop.
func (h *Harness) commandLoop(ctx *Ctx) error {
	p := ctx.Proc
	for {
		cmd, ok := h.inbox.Recv(p)
		if !ok {
			return fmt.Errorf("sidetask %s: command channel closed", h.name)
		}
		if err := h.handle(ctx, cmd); err != nil {
			return err
		}
	}
}

// handle applies one command in the current state.
func (h *Harness) handle(ctx *Ctx, cmd Command) error {
	p := ctx.Proc
	switch cmd.Transition {
	case TransitionInit:
		if h.State() != StateCreated {
			return nil // tolerate duplicate/err-ordered commands
		}
		ctx.HostWork(h.profile.InitTime)
		if err := h.init(ctx); err != nil {
			return fmt.Errorf("sidetask %s: init: %w", h.name, err)
		}
		h.setState(StatePaused, p.Now())
		return nil

	case TransitionStart:
		if h.State() != StatePaused {
			return nil
		}
		h.mu.Lock()
		h.bubbleEnd = cmd.BubbleEnd
		h.counters.StartedRuns++
		h.mu.Unlock()
		h.setState(StateRunning, p.Now())
		if h.mode == ModeImperative {
			// The imperative body runs to completion; pause/resume happen
			// via SIGTSTP/SIGCONT outside our control (paper §4.2).
			err := h.imper.RunGpuWorkload(ctx)
			h.setState(StateStopped, p.Now())
			if err != nil {
				return fmt.Errorf("sidetask %s: workload: %w", h.name, err)
			}
			return errStopped
		}
		return h.runIterative(ctx)

	case TransitionPause:
		// Only meaningful mid-run; handled inside runIterative. Arriving
		// here means we are already paused.
		return nil

	case TransitionStop:
		return h.stop(ctx)
	}
	return nil
}

// runIterative is the RUNNING-state loop of the iterative interface:
// between steps it checks for worker transitions, and before each step the
// program-directed mechanism verifies the remaining bubble time (paper
// §4.5).
func (h *Harness) runIterative(ctx *Ctx) error {
	p := ctx.Proc
	for {
		// Worker transitions take priority over the next step.
		if cmd, ok := h.inbox.TryRecv(); ok {
			switch cmd.Transition {
			case TransitionPause:
				h.setState(StatePaused, p.Now())
				return nil
			case TransitionStop:
				return h.stop(ctx)
			case TransitionStart:
				// Bubble extension / refresh.
				h.mu.Lock()
				h.bubbleEnd = cmd.BubbleEnd
				h.mu.Unlock()
			}
			continue
		}

		h.mu.Lock()
		deadline := h.bubbleEnd
		estimate := h.stepEstimate
		h.mu.Unlock()
		remaining := deadline - p.Now()
		if remaining < estimate {
			// Program-directed limit: not enough bubble left for another
			// step. Account the unusable remainder and wait for the next
			// command (normally the manager's pause, then a new start).
			if remaining > 0 {
				h.mu.Lock()
				h.counters.InsuffWait += remaining
				h.mu.Unlock()
			}
			cmd, ok := h.inbox.Recv(p)
			if !ok {
				return fmt.Errorf("sidetask %s: command channel closed", h.name)
			}
			switch cmd.Transition {
			case TransitionPause:
				h.setState(StatePaused, p.Now())
				return nil
			case TransitionStop:
				return h.stop(ctx)
			case TransitionStart:
				h.mu.Lock()
				h.bubbleEnd = cmd.BubbleEnd
				h.mu.Unlock()
			}
			continue
		}

		stepStart := p.Now()
		if err := h.iter.RunNextStep(ctx); err != nil {
			return fmt.Errorf("sidetask %s: step: %w", h.name, err)
		}
		h.mu.Lock()
		h.counters.Steps++
		h.counters.KernelTime += p.Now() - stepStart - h.profile.HostOverhead
		h.counters.HostTime += h.profile.HostOverhead
		h.counters.StepEvents += uint64(h.kernelParts) + 1
		h.mu.Unlock()
	}
}

func (h *Harness) create(ctx *Ctx) error {
	if h.mode == ModeImperative {
		return h.imper.CreateSideTask(ctx)
	}
	return h.iter.CreateSideTask(ctx)
}

func (h *Harness) init(ctx *Ctx) error {
	if h.mode == ModeImperative {
		return h.imper.InitSideTask(ctx)
	}
	return h.iter.InitSideTask(ctx)
}

func (h *Harness) stop(ctx *Ctx) error {
	if h.mode == ModeIterative {
		if err := h.iter.StopSideTask(ctx); err != nil {
			return fmt.Errorf("sidetask %s: stop: %w", h.name, err)
		}
	}
	h.setState(StateStopped, ctx.Proc.Now())
	return errStopped
}
