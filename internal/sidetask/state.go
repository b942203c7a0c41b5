// Package sidetask implements FreeRide's side-task programming framework
// (paper §3.1, §4.1–4.2, §5): the five-state life-cycle state machine, the
// iterative interface (step-wise execution with the program-directed time
// limit) and the imperative interface (transparent pause/resume through
// SIGTSTP/SIGCONT), plus the six built-in side tasks of the evaluation.
//
// The package has one rule: every decision of the life cycle lives on
// Harness (lifecycle.go), and a substrate only blocks. What a command does
// in each state (command), what RUNNING does next (head), the
// program-directed admission check and its InsuffWait charge (admit), the
// jittered step draw and its kernel split (drawStep), the per-step accounting
// (stepDone), the transitions' bodies and their error wrapping (created,
// initialized, stopTask, runEnded) are each written once; every state change
// goes through setState and every completed step through stepDone, which is
// where a recorder hooks. A decision never blocks: it returns an action, and
// the substrate performs it — Run through Recv / Sleep / Exec on the
// goroutine shell, inlineRun through RecvThen / SleepThen / ExecLeadThen on
// the event loop. On both, a step's host overhead is its first kernel's host
// lead (on the shell: the deferred HostWork sleep that Exec takes). How a
// lead is realised (one engine event, or a sleep and a launch) is simgpu's
// business alone.
//
// Who may call what, from where:
//   - A deployer (core.Worker, the session's baselines, the profiler, the
//     experiment rigs) builds a harness, optionally calls Restore, then
//     Launch — which picks the substrate — and from then on talks to it
//     from engine-callback context only:
//     SetStateListener, Deliver, State, Counters, and signals on the
//     container.
//   - A substrate (Run, Start) calls the decisions, and only from its own
//     process's context; nothing else may.
//   - Task code sees the Ctx it is handed. On the shell it may spend time
//     through Ctx.HostWork and block through Ctx.ExecStepKernel; HostWork
//     does not park, so code between it and the next blocking call or clock
//     read runs at the start of the host phase. A Stepper's bodies run on the
//     event loop and must not block at all.
//   - A built-in's real steps may run up to runAheadDepth steps ahead (one
//     without a spare core) on the task's own goroutine; it touches only the
//     task's own state, never a Ctx, a component or the engine.
package sidetask

import "fmt"

// State is a side task's life-cycle state (paper Figure 4a).
type State int

// The five states of the paper's state machine.
const (
	// StateSubmitted: profiled and submitted to the manager; no process.
	StateSubmitted State = iota + 1
	// StateCreated: process exists, context loaded in host memory only.
	StateCreated
	// StatePaused: context loaded in GPU memory; waiting for a bubble.
	StatePaused
	// StateRunning: executing step-wise GPU work inside a bubble.
	StateRunning
	// StateStopped: terminated; all resources released.
	StateStopped
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateSubmitted:
		return "SUBMITTED"
	case StateCreated:
		return "CREATED"
	case StatePaused:
		return "PAUSED"
	case StateRunning:
		return "RUNNING"
	case StateStopped:
		return "STOPPED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Transition names the six state transitions of Figure 4a.
type Transition int

// The transitions of the paper's state machine.
const (
	TransitionCreate      Transition = iota + 1 // SUBMITTED -> CREATED
	TransitionInit                              // CREATED -> PAUSED
	TransitionStart                             // PAUSED -> RUNNING
	TransitionPause                             // RUNNING -> PAUSED
	TransitionRunNextStep                       // RUNNING -> RUNNING (self loop)
	TransitionStop                              // CREATED/PAUSED/RUNNING -> STOPPED
)

// String implements fmt.Stringer.
func (t Transition) String() string {
	switch t {
	case TransitionCreate:
		return "CreateSideTask"
	case TransitionInit:
		return "InitSideTask"
	case TransitionStart:
		return "StartSideTask"
	case TransitionPause:
		return "PauseSideTask"
	case TransitionRunNextStep:
		return "RunNextStep"
	case TransitionStop:
		return "StopSideTask"
	default:
		return fmt.Sprintf("Transition(%d)", int(t))
	}
}
