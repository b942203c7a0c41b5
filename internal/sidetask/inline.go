package sidetask

import (
	"fmt"
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
	_, ok := h.stepper()
	return ok
}

// stepper finds the Stepper behind either interface (the imperative one
// reaches it through the adapter).
func (h *Harness) stepper() (Stepper, bool) {
	var impl any = h.iter
	if a, ok := h.imper.(*imperativeAdapter); ok {
		impl = a.inner
	}
	s, ok := impl.(Stepper)
	return s, ok
}

// Start is the event-loop container body (the inline counterpart of Run):
// it drives the full life cycle as continuations on the engine goroutine.
// Requires CanInline.
func (h *Harness) Start(p *simproc.Process, gpu *simgpu.Client) {
	stepper, ok := h.stepper()
	if !ok {
		p.Exit(fmt.Errorf("sidetask %s: harness cannot run inline", h.name))
		return
	}
	r := &inlineRun{h: h, p: p, ctx: h.newCtx(p, gpu), stepper: stepper}
	if gpu != nil && h.kernelParts > 1 {
		gpu.SetPartSource(r.ctx) // afterKernel keeps its contract
	}
	r.afterCreateFn = r.afterCreate
	r.onCommandFn = r.onCommand
	r.afterInitFn = r.afterInit
	r.afterKernelFn = r.afterKernel
	r.failFn = r.stepFail
	p.SleepThen(h.profile.CreateTime, r.afterCreateFn)
}

// inlineRun is Run as continuations: each blocking point of the goroutine
// body is a pre-bound continuation, so the hot RUNNING-state step loop
// allocates nothing and never leaves the engine goroutine.
type inlineRun struct {
	h       *Harness
	p       *simproc.Process
	ctx     *Ctx
	stepper Stepper

	stepStart time.Duration
	stepErr   error // StepWork failure awaiting the end of the host phase

	afterCreateFn func(any)
	onCommandFn   func(any)
	afterInitFn   func(any)
	afterKernelFn func(any)
	failFn        func(any)
}

// do blocks the way a does.
func (r *inlineRun) do(a action) {
	switch a {
	case actRecv:
		r.h.inbox.RecvThen(r.p, r.onCommandFn)
	case actInit:
		r.p.SleepThen(r.h.profile.InitTime, r.afterInitFn)
	case actStep:
		r.step()
	case actStop:
		r.p.Exit(r.h.stopTask(r.ctx))
	}
}

// then exits on a failed transition and does a after a good one.
func (r *inlineRun) then(err error, a action) {
	if err != nil {
		r.p.Exit(err)
		return
	}
	r.do(a)
}

func (r *inlineRun) afterCreate(any) { r.then(r.h.created(r.ctx), actRecv) }
func (r *inlineRun) afterInit(any)   { r.then(r.h.initialized(r.ctx), actRecv) }

func (r *inlineRun) onCommand(wake any) {
	if _, closed := wake.(simproc.Closed); closed {
		r.p.Exit(r.h.closedErr())
		return
	}
	// A wake that finds the inbox empty reads as the zero Command: a no-op.
	cmd, _ := r.h.inbox.TryRecv()
	r.do(r.h.command(cmd, r.p.Now()))
}

// step is RunNextStep, decomposed. The CPU work executes at the step's
// start instant (the shell runs it after the host sleep, but StepWork draws
// no virtual time and the RNG draw order is preserved); the first kernel
// launches with the host overhead as its lead.
func (r *inlineRun) step() {
	r.stepStart = r.p.Now()
	if err := r.stepper.StepWork(r.ctx); err != nil {
		// The shell surfaces a StepWork failure after the host sleep; keep
		// the exit instant identical.
		r.stepErr = err
		r.p.SleepThen(r.h.profile.HostOverhead, r.failFn)
		return
	}
	r.ctx.beginKernels()
	r.ctx.GPU.ExecLeadThen(r.p, r.ctx.NextPart(), r.h.profile.HostOverhead, r.afterKernelFn)
}

func (r *inlineRun) stepFail(any) {
	r.p.Exit(r.h.runEnded(r.stepErr, r.p.Now()))
}

func (r *inlineRun) afterKernel(res any) {
	now := r.p.Now()
	if res != nil {
		err, ok := res.(error)
		if !ok {
			err = fmt.Errorf("simgpu: unexpected completion payload %T", res)
		}
		r.p.Exit(r.h.runEnded(err, now))
		return
	}
	if spec := r.ctx.NextPart(); spec != nil {
		// Parts 2..n launch back to back with no host lead; where the
		// device relaunches them itself, this is all it skips.
		r.ctx.GPU.ExecThen(r.p, spec, r.afterKernelFn)
		return
	}
	r.h.stepDone(now - r.stepStart)
	r.do(r.h.head(now))
}
