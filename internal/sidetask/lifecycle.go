package sidetask

import (
	"fmt"
	"math/rand"
	"time"

	"freeride/internal/container"
)

// action is what a life-cycle decision tells the substrate to do next.
type action int

const (
	// actRecv: block for the next worker command — CREATED, PAUSED, or RUNNING
	// with no admissible step — and hand it to command.
	actRecv action = iota
	// actInit: spend InitTime, then call initialized.
	actInit
	// actStep: run one step (under the shell's imperative interface: the whole
	// workload), then stepDone and head.
	actStep
	// actStop: exit with stopTask's result.
	actStop
)

// Launch deploys the harness as a container of ctrs on the substrate it
// qualifies for: the event loop when CanInline, the goroutine shell (a
// coroutine of the dispatcher: two switches per blocking call, HostWork not
// being one; the same one owner) for arbitrary user implementations.
// The observable life cycle is the same either way.
func (h *Harness) Launch(ctrs *container.Runtime, spec container.Spec) (*container.Container, error) {
	if h.CanInline() {
		return ctrs.RunInline(spec, h.Start)
	}
	return ctrs.Run(spec, h.Run)
}

// command applies one worker command in the current state (paper Figure 5)
// and reports what the process does next. A command that is not legal in the
// state — a duplicate, a reordering, the zero Command — is tolerated as a
// no-op. The imperative body never reads its inbox mid-run, so only the
// iterative interface gets here while RUNNING.
func (h *Harness) command(cmd Command, now time.Duration) action {
	state := h.State()
	switch cmd.Transition {
	case TransitionStop:
		return actStop
	case TransitionInit:
		if state == StateCreated {
			return actInit
		}
	case TransitionStart:
		if state != StatePaused && state != StateRunning {
			break
		}
		h.bubbleEnd = cmd.BubbleEnd // while RUNNING: a bubble extension / refresh
		if state == StatePaused {
			h.counters.StartedRuns++
			h.setState(StateRunning, now)
		}
		return h.head(now)
	case TransitionPause:
		if state == StateRunning {
			h.setState(StatePaused, now)
			return actRecv
		}
	}
	if state == StateRunning {
		return h.head(now)
	}
	return actRecv
}

// head is the RUNNING-state loop head. Under the iterative interface worker
// transitions take priority over the next step (command comes back here
// while the task stays RUNNING), and the program-directed limit has the last
// word; the imperative interface is bubble-blind and just steps.
func (h *Harness) head(now time.Duration) action {
	if h.mode == ModeIterative {
		if cmd, ok := h.inbox.TryRecv(); ok {
			return h.command(cmd, now)
		}
		if !h.admit(now) {
			return actRecv
		}
	}
	return actStep
}

// admit is the program-directed execution-time limit (paper §4.5): a step
// that the profile's estimate (StepTime + HostOverhead) says cannot finish by
// the bubble's end is not begun. The unusable remainder is charged to
// InsuffWait and the task waits for the next command (normally the manager's
// pause, then a new start).
func (h *Harness) admit(now time.Duration) bool {
	remaining := h.bubbleEnd - now
	if remaining >= h.profile.StepTime+h.profile.HostOverhead {
		return true
	}
	if remaining > 0 {
		h.counters.InsuffWait += remaining
	}
	return false
}

// drawStep draws the next step's jittered kernel duration and splits it into
// kernelParts: the last part absorbs the integer-division remainder, so the
// parts sum exactly to the draw (a plain d/parts split loses up to parts-1 ns
// per step). An iterative step is one part, the whole draw.
func (h *Harness) drawStep(rng *rand.Rand) (per, last time.Duration) {
	d := h.profile.StepTime
	if h.profile.StepJitter > 0 {
		f := 1 + h.profile.StepJitter*(2*rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	h.lastStepDur = d
	if h.kernelParts == 1 {
		return d, d
	}
	parts := time.Duration(h.kernelParts)
	per = d / parts
	return per, d - (parts-1)*per
}

// stepDone is the one accounting site of a completed step; elapsed is its
// duration on the process's clock.
func (h *Harness) stepDone(elapsed time.Duration) {
	kernel := elapsed - h.profile.HostOverhead
	if h.mode == ModeImperative {
		// A SIGTSTP may have stretched the step, so nothing measured is
		// charged: the jittered duration the step actually issued (the nominal
		// StepTime would drift from the simulated work under StepJitter), or
		// the nominal cost for a custom inner that bypasses ExecStepKernel.
		kernel = h.lastStepDur
		if kernel == 0 {
			kernel = h.profile.StepTime
		}
	}
	h.counters.Steps++
	h.counters.KernelTime += kernel
	h.counters.HostTime += h.profile.HostOverhead
	h.counters.StepEvents += h.stepEvents
}

// impl is the user's implementation of the two transitions both interfaces
// share.
func (h *Harness) impl() interface {
	CreateSideTask(*Ctx) error
	InitSideTask(*Ctx) error
} {
	if h.mode == ModeImperative {
		return h.imper
	}
	return h.iter
}

// created completes SUBMITTED -> CREATED once CreateTime has been spent: the
// context is loaded into host memory.
func (h *Harness) created(ctx *Ctx) error {
	if err := h.impl().CreateSideTask(ctx); err != nil {
		return h.failed("create", err)
	}
	h.setState(StateCreated, ctx.Proc.Now())
	return nil
}

// initialized completes CREATED -> PAUSED once InitTime has been spent: the
// context is loaded into GPU memory.
func (h *Harness) initialized(ctx *Ctx) error {
	if err := h.impl().InitSideTask(ctx); err != nil {
		return h.failed("init", err)
	}
	h.setState(StatePaused, ctx.Proc.Now())
	return nil
}

// stopTask is TransitionStop from any live state; its result is the
// process's exit error. Only the iterative interface has a release hook.
func (h *Harness) stopTask(ctx *Ctx) error {
	if h.mode == ModeIterative {
		if err := h.iter.StopSideTask(ctx); err != nil {
			return h.failed("stop", err)
		}
	}
	h.setState(StateStopped, ctx.Proc.Now())
	return nil
}

// runEnded turns the end of the RUNNING state's work into the exit error: a
// failed iterative step exits as it stands, an imperative workload — failed,
// or returned by a custom body — stops first.
func (h *Harness) runEnded(err error, now time.Duration) error {
	if h.mode == ModeIterative {
		return h.failed("step", err)
	}
	h.setState(StateStopped, now)
	return h.failed("workload", err)
}

// failed names the task and the failed phase in an exit error; nil stays nil.
func (h *Harness) failed(phase string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("sidetask %s: %s: %w", h.name, phase, err)
}

// closedErr is the exit error of a task whose command channel was closed
// under it.
func (h *Harness) closedErr() error {
	return fmt.Errorf("sidetask %s: command channel closed", h.name)
}
