package sidetask

import (
	"fmt"
	"math/rand"
	"time"

	"freeride/internal/simgpu"
	"freeride/internal/simproc"
)

// CanInline reports whether this harness can run as an event-loop process
// (simproc.SpawnInline / container.RunInline): the task implementation must
// expose its per-step CPU work through Stepper so the harness can own every
// blocking point. All built-in tasks qualify, in both interfaces; arbitrary
// user implementations fall back to the goroutine shell (Run).
func (h *Harness) CanInline() bool {
	switch h.mode {
	case ModeIterative:
		_, ok := h.iter.(Stepper)
		return ok
	case ModeImperative:
		a, ok := h.imper.(*imperativeAdapter)
		if !ok {
			return false
		}
		_, ok = a.inner.(Stepper)
		return ok
	default:
		return false
	}
}

// Start is the event-loop container body (the inline counterpart of Run):
// it drives the full life cycle as continuations on the engine goroutine.
// The behaviour — state transitions, timing, counters, error strings — is
// identical to Run's; only the execution substrate differs. Requires
// CanInline.
func (h *Harness) Start(p *simproc.Process, gpu *simgpu.Client) {
	if !h.CanInline() {
		p.Exit(fmt.Errorf("sidetask %s: harness cannot run inline", h.name))
		return
	}
	r := &inlineRun{
		h: h,
		p: p,
		ctx: &Ctx{
			Proc:    p,
			GPU:     gpu,
			Profile: h.profile,
			Rng:     rand.New(rand.NewSource(h.seed)),
			h:       h,
		},
	}
	switch h.mode {
	case ModeIterative:
		r.stepper = h.iter.(Stepper)
	case ModeImperative:
		a := h.imper.(*imperativeAdapter)
		r.stepper = a.inner.(Stepper)
		r.imperative = true
		r.maxSteps = a.maxSteps
	}
	r.afterCreateFn = r.afterCreate
	r.onCommandFn = r.onCommand
	r.afterInitFn = r.afterInit
	r.afterHostFn = r.afterHost
	r.afterKernelFn = r.afterKernel
	r.onWaitCmdFn = r.onWaitCmd
	r.failFn = r.stepFail

	// The step-kernel spec is threaded by pointer through every launch; only
	// Duration mutates per part (the launch reads the spec synchronously, so
	// reuse is safe — see simgpu.KernelSpec).
	r.spec = simgpu.KernelSpec{
		Name:   h.stepKernelName,
		Demand: h.profile.Demand,
		Weight: h.profile.Weight,
	}
	r.fused = gpu != nil && gpu.Device().LeadCapable()
	if r.fused {
		// A fused step must observe SIGTSTP exactly where the unfused
		// host-sleep boundary did: hold a still-pending host lead on stop
		// (a kernel already past its lead keeps running through the pause,
		// like an asynchronous CUDA kernel), and release it on continue so
		// the remaining host phase resumes from the stop instant.
		p.SetSignalHook(func(sig simproc.Signal) {
			switch sig {
			case simproc.SigStop:
				gpu.HoldLead()
			case simproc.SigCont:
				gpu.ReleaseLead()
			}
		})
	}

	// SUBMITTED -> CREATED: load context into host memory.
	p.SleepThen(h.profile.CreateTime, r.afterCreateFn)
}

// inlineRun is the harness state machine: each blocking point of the
// goroutine body becomes a pre-bound continuation, so the hot RUNNING-state
// step loop allocates nothing and never leaves the engine goroutine.
type inlineRun struct {
	h       *Harness
	p       *simproc.Process
	ctx     *Ctx
	stepper Stepper

	// imperative selects the RunGpuWorkload-shaped loop (no inbox polling,
	// no program-directed deadline, profile-accounted counters); maxSteps
	// bounds it (0 = forever), mirroring imperativeAdapter.
	imperative bool
	maxSteps   int
	stepsDone  int

	// fused selects the one-event-per-step loop: the step's host overhead is
	// folded into the kernel launch as a host lead (simgpu.ExecLeadThen), so
	// the engine sees a single completion event per step instead of a host
	// sleep plus a completion. Timing, counters and RNG draws are
	// bit-identical to the two-event loop, which is the only loop where the
	// device cannot lead: the wall engine (live mode) and full-rebalance
	// devices.
	fused bool

	stepStart  time.Duration
	stepDur    time.Duration // jittered total kernel duration of the step
	partsLeft  int
	perKernel  time.Duration
	lastKernel time.Duration // final part: perKernel + division remainder
	stepErr    error         // deferred StepWork failure (fused path)

	afterCreateFn func(any)
	onCommandFn   func(any)
	afterInitFn   func(any)
	afterHostFn   func(any)
	afterKernelFn func(any)
	onWaitCmdFn   func(any)
	failFn        func(any)

	// spec is the reusable step-kernel spec; Duration is rewritten before
	// every launch, all other fields are fixed at Start.
	spec simgpu.KernelSpec
}

func (r *inlineRun) afterCreate(any) {
	h := r.h
	if err := h.create(r.ctx); err != nil {
		r.p.Exit(fmt.Errorf("sidetask %s: create: %w", h.name, err))
		return
	}
	h.setState(StateCreated, r.p.Now())
	r.recv()
}

// recv is the CREATED/PAUSED command loop (commandLoop in the goroutine
// body).
func (r *inlineRun) recv() {
	r.h.inbox.RecvThen(r.p, r.onCommandFn)
}

func (r *inlineRun) onCommand(wake any) {
	if _, closed := wake.(simproc.Closed); closed {
		r.p.Exit(fmt.Errorf("sidetask %s: command channel closed", r.h.name))
		return
	}
	cmd, ok := r.h.inbox.TryRecv()
	if !ok {
		r.recv()
		return
	}
	r.handle(cmd)
}

// handle applies one command in the current state (handle in the goroutine
// body; unexpected commands are tolerated by returning to the command loop).
func (r *inlineRun) handle(cmd Command) {
	h := r.h
	switch cmd.Transition {
	case TransitionInit:
		if h.State() != StateCreated {
			r.recv()
			return
		}
		r.p.SleepThen(h.profile.InitTime, r.afterInitFn)

	case TransitionStart:
		if h.State() != StatePaused {
			r.recv()
			return
		}
		h.mu.Lock()
		h.bubbleEnd = cmd.BubbleEnd
		h.counters.StartedRuns++
		h.mu.Unlock()
		h.setState(StateRunning, r.p.Now())
		if r.imperative {
			r.impStep()
			return
		}
		r.iterLoop()

	case TransitionStop:
		r.stop()

	default: // TransitionPause et al.: only meaningful mid-run.
		r.recv()
	}
}

func (r *inlineRun) afterInit(any) {
	h := r.h
	if err := h.init(r.ctx); err != nil {
		r.p.Exit(fmt.Errorf("sidetask %s: init: %w", h.name, err))
		return
	}
	h.setState(StatePaused, r.p.Now())
	r.recv()
}

func (r *inlineRun) stop() {
	h := r.h
	if h.mode == ModeIterative {
		if err := h.iter.StopSideTask(r.ctx); err != nil {
			r.p.Exit(fmt.Errorf("sidetask %s: stop: %w", h.name, err))
			return
		}
	}
	h.setState(StateStopped, r.p.Now())
	r.p.Exit(nil)
}

// iterLoop is the RUNNING-state loop head of the iterative interface
// (runIterative): drain worker transitions, apply the program-directed time
// limit, then start the next step.
func (r *inlineRun) iterLoop() {
	h, p := r.h, r.p
	for {
		cmd, ok := h.inbox.TryRecv()
		if !ok {
			break
		}
		switch cmd.Transition {
		case TransitionPause:
			h.setState(StatePaused, p.Now())
			r.recv()
			return
		case TransitionStop:
			r.stop()
			return
		case TransitionStart:
			// Bubble extension / refresh.
			h.mu.Lock()
			h.bubbleEnd = cmd.BubbleEnd
			h.mu.Unlock()
		}
	}

	h.mu.Lock()
	deadline := h.bubbleEnd
	estimate := h.stepEstimate
	h.mu.Unlock()
	remaining := deadline - p.Now()
	if remaining < estimate {
		// Program-directed limit: not enough bubble left for another step.
		// Account the unusable remainder and wait for the next command.
		if remaining > 0 {
			h.mu.Lock()
			h.counters.InsuffWait += remaining
			h.mu.Unlock()
		}
		h.inbox.RecvThen(p, r.onWaitCmdFn)
		return
	}

	r.stepStart = p.Now()
	if r.fused {
		r.stepLaunch()
		return
	}
	// RunNextStep, decomposed: host-side time, CPU work, step kernel(s).
	p.SleepThen(h.profile.HostOverhead, r.afterHostFn)
}

// onWaitCmd handles the command that ends an insufficient-time wait (the
// blocking Recv inside runIterative).
func (r *inlineRun) onWaitCmd(wake any) {
	h, p := r.h, r.p
	if _, closed := wake.(simproc.Closed); closed {
		p.Exit(fmt.Errorf("sidetask %s: command channel closed", h.name))
		return
	}
	cmd, ok := h.inbox.TryRecv()
	if !ok {
		r.iterLoop()
		return
	}
	switch cmd.Transition {
	case TransitionPause:
		h.setState(StatePaused, p.Now())
		r.recv()
	case TransitionStop:
		r.stop()
	case TransitionStart:
		h.mu.Lock()
		h.bubbleEnd = cmd.BubbleEnd
		h.mu.Unlock()
		r.iterLoop()
	default:
		r.iterLoop()
	}
}

// stepLaunch is the fused step body, run at the step's start instant: the
// CPU work executes now (the unfused arm runs it after the host sleep, but
// StepWork draws no virtual time and the RNG draw order is preserved), and
// the kernel launches with the host overhead as its lead — ONE engine event
// per step (the completion at stepStart+HostOverhead+<share-scaled
// duration>) instead of the unfused host sleep + completion pair.
func (r *inlineRun) stepLaunch() {
	h := r.h
	if err := r.stepper.StepWork(r.ctx); err != nil {
		// The unfused arm surfaces a StepWork failure after the host
		// sleep; keep the exit instant identical.
		r.stepErr = err
		r.p.SleepThen(h.profile.HostOverhead, r.failFn)
		return
	}
	r.computeStep()
	r.spec.Duration = r.kernelDur()
	r.ctx.GPU.ExecLeadThen(r.p, &r.spec, h.profile.HostOverhead, r.afterKernelFn)
}

// stepFail is the deferred-failure continuation of the fused path.
func (r *inlineRun) stepFail(any) {
	r.stepFailed(r.stepErr)
}

// computeStep draws the step's jittered duration and splits it into
// kernelParts; the last part absorbs the integer-division remainder so the
// parts sum exactly to the drawn duration (a plain d/parts split loses up
// to parts-1 ns per step).
func (r *inlineRun) computeStep() {
	h := r.h
	d := h.profile.StepTime
	if h.profile.StepJitter > 0 {
		f := 1 + h.profile.StepJitter*(2*r.ctx.Rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	parts := h.kernelParts
	if parts < 1 {
		parts = 1
	}
	r.stepDur = d
	r.partsLeft = parts
	r.perKernel = d / time.Duration(parts)
	r.lastKernel = d - time.Duration(parts-1)*r.perKernel
}

func (r *inlineRun) kernelDur() time.Duration {
	if r.partsLeft == 1 {
		return r.lastKernel
	}
	return r.perKernel
}

// afterHost runs the step's CPU work and issues its kernel(s) — the inline
// ExecStepKernel (unfused arm only).
func (r *inlineRun) afterHost(any) {
	if err := r.stepper.StepWork(r.ctx); err != nil {
		r.stepFailed(err)
		return
	}
	r.computeStep()
	r.launchKernel()
}

func (r *inlineRun) launchKernel() {
	r.spec.Duration = r.kernelDur()
	r.ctx.GPU.ExecThen(r.p, &r.spec, r.afterKernelFn)
}

func (r *inlineRun) afterKernel(res any) {
	if res != nil {
		err, ok := res.(error)
		if !ok {
			err = fmt.Errorf("simgpu: unexpected completion payload %T", res)
		}
		r.stepFailed(err)
		return
	}
	r.partsLeft--
	if r.partsLeft > 0 {
		// Parts 2..n launch back to back with no host lead (both arms).
		r.launchKernel()
		return
	}
	h, p := r.h, r.p
	parts := h.kernelParts
	if parts < 1 {
		parts = 1
	}
	events := uint64(parts)
	if !r.fused {
		events++ // the separate host-overhead sleep
	}
	if r.imperative {
		// imperativeAdapter accounting: host overhead plus the jittered
		// kernel duration the step actually issued (the nominal StepTime
		// would drift from the simulated work under StepJitter).
		h.mu.Lock()
		h.counters.Steps++
		h.counters.KernelTime += r.stepDur
		h.counters.HostTime += h.profile.HostOverhead
		h.counters.StepEvents += events
		h.mu.Unlock()
		r.stepsDone++
		r.impStep()
		return
	}
	h.mu.Lock()
	h.counters.Steps++
	h.counters.KernelTime += p.Now() - r.stepStart - h.profile.HostOverhead
	h.counters.HostTime += h.profile.HostOverhead
	h.counters.StepEvents += events
	h.mu.Unlock()
	r.iterLoop()
}

// stepFailed exits with the same error shape as the goroutine body: the
// iterative loop wraps step errors, the imperative workload stops first and
// wraps as a workload failure.
func (r *inlineRun) stepFailed(err error) {
	h := r.h
	if r.imperative {
		h.setState(StateStopped, r.p.Now())
		r.p.Exit(fmt.Errorf("sidetask %s: workload: %w", h.name, err))
		return
	}
	r.p.Exit(fmt.Errorf("sidetask %s: step: %w", h.name, err))
}

// impStep is the RunGpuWorkload-shaped loop head: run steps back to back
// (bubble-blind; pause/resume arrive as SIGTSTP/SIGCONT) until maxSteps.
func (r *inlineRun) impStep() {
	if r.maxSteps > 0 && r.stepsDone >= r.maxSteps {
		r.h.setState(StateStopped, r.p.Now())
		r.p.Exit(nil)
		return
	}
	r.stepStart = r.p.Now()
	if r.fused {
		r.stepLaunch()
		return
	}
	r.p.SleepThen(r.h.profile.HostOverhead, r.afterHostFn)
}
