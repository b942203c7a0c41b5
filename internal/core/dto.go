// Package core is FreeRide's control plane — the paper's primary
// contribution: the side task manager implementing the placement algorithm
// (Alg. 1) and the bubble-serving loop (Alg. 2), and the per-GPU side task
// workers that own task containers and enforce the GPU resource limits
// (§4.4–4.6). Manager and workers communicate exclusively through freerpc,
// so the same code runs in-process over the in-memory transport (simulation)
// and across machines over TCP (freeride-managerd / freeride-workerd).
//
// The manager (manager.go: types, options, constructor) is one engine's state
// over five concerns, a file each: placement.go (Alg. 1), reconcile.go (the
// Tick grid and Alg. 2), calls.go (the side-task state machine as the manager
// drives it), liveness.go (leases, pings, what workers report) and recovery.go
// (lost workers, backoff, re-placement, retirement); replan.go is the online
// re-profiling plane on top. One rule: a manager→worker call about a task is a
// row of callTable, and its completion is guarded against the record and
// decoded once, in complete — a new call, or a new reaction to a reply, is a
// table entry, never a handler of its own.
package core

import (
	"time"

	"freeride/internal/bubble"
	"freeride/internal/model"
	"freeride/internal/sidetask"
)

// TaskSpec is the wire-serializable description of a side task submission:
// the task identity plus the performance characteristics produced by the
// automated profiler (paper step ➌: "submit side task and perf.
// characteristics to side task manager").
type TaskSpec struct {
	// Name is the unique task instance name.
	Name string `json:"name"`
	// Profile carries the profiled characteristics (memory requirement,
	// per-step duration) and the workload identity.
	Profile model.TaskProfile `json:"profile"`
	// Mode selects iterative or imperative (1 or 2).
	Mode sidetask.Mode `json:"mode"`
	// WorkScale selects how much real computation the built-in tasks do.
	WorkScale sidetask.WorkScale `json:"workScale"`
	// Seed makes the task deterministic.
	Seed int64 `json:"seed"`
}

// createArgs asks a worker to create the task process (SUBMITTED→CREATED).
type createArgs struct {
	Spec TaskSpec `json:"spec"`
	// MemLimitBytes is the MPS memory cap the worker must impose.
	MemLimitBytes int64 `json:"memLimitBytes"`
	// Incarnation numbers this deployment of the task: 0 for the original
	// placement, bumped by the manager on every recovery re-placement. The
	// worker echoes it in all pushes/statuses so the manager can discard
	// reports from dead incarnations.
	Incarnation int `json:"incarnation,omitempty"`
	// Ckpt, when non-nil, seeds the task from its last checkpointed
	// progress (restart-from-checkpoint after a worker failure).
	Ckpt *TaskCkpt `json:"ckpt,omitempty"`
}

// TaskCkpt is the manager-recorded checkpoint of a task's completed work:
// the counters reported by the last successful pause. On re-placement the
// new incarnation resumes from here; anything accrued since is lost work.
type TaskCkpt struct {
	Steps        uint64 `json:"steps"`
	KernelTimeNs int64  `json:"kernelTimeNs"`
	HostTimeNs   int64  `json:"hostTimeNs"`
	InsuffNs     int64  `json:"insuffNs"`
}

// taskRef names a task on a worker.
type taskRef struct {
	Name string `json:"name"`
}

// startArgs initiates StartSideTask with the bubble deadline ("it also
// sends the end time of this bubble to the side task", §4.5).
type startArgs struct {
	Name        string `json:"name"`
	BubbleEndNs int64  `json:"bubbleEndNs"`
}

// taskStatus is the worker's report on one task.
type taskStatus struct {
	Name    string `json:"name"`
	State   int    `json:"state"`
	Exited  bool   `json:"exited"`
	ExitErr string `json:"exitErr,omitempty"`
	Started bool   `json:"started,omitempty"`
	// Incarnation echoes createArgs.Incarnation; the manager drops reports
	// whose incarnation is not the current one.
	Incarnation int `json:"incarnation,omitempty"`

	Steps        uint64 `json:"steps"`
	KernelTimeNs int64  `json:"kernelTimeNs"`
	HostTimeNs   int64  `json:"hostTimeNs"`
	InsuffNs     int64  `json:"insuffNs"`
}

// pingReply answers Worker.Ping: a liveness proof plus a status snapshot of
// every deployed task. The statuses double as anti-entropy — a push lost to
// a faulted link is healed by the next ping's snapshot.
type pingReply struct {
	Name  string       `json:"name"`
	Tasks []taskStatus `json:"tasks,omitempty"`
}

// workerInfo describes a worker to the manager.
type workerInfo struct {
	Name     string `json:"name"`
	GPUMem   int64  `json:"gpuMem"`
	NumTasks int    `json:"numTasks"`
}

// BubbleDTO is the wire form of a bubble report from the instrumented
// trainer. It is exported so reporters outside core (the session assembly,
// the live node daemon) send the exact type the manager's handler expects:
// over a MemPipe that makes the report a zero-JSON typed handoff, over TCP
// it marshals to the same JSON as always.
type BubbleDTO struct {
	Stage    int   `json:"stage"`
	Type     int   `json:"type"`
	StartNs  int64 `json:"startNs"`
	DurNs    int64 `json:"durNs"`
	MemAvail int64 `json:"memAvail"`
}

// ToBubbleDTO converts a bubble to its wire form.
func ToBubbleDTO(b bubble.Bubble) BubbleDTO {
	return BubbleDTO{
		Stage:    b.Stage,
		Type:     int(b.Type),
		StartNs:  int64(b.Start),
		DurNs:    int64(b.Duration),
		MemAvail: b.MemAvailable,
	}
}

// FromBubbleDTO converts a wire bubble back to the domain type.
func FromBubbleDTO(d BubbleDTO) bubble.Bubble {
	return bubble.Bubble{
		Stage:        d.Stage,
		Type:         bubble.Type(d.Type),
		Start:        time.Duration(d.StartNs),
		Duration:     time.Duration(d.DurNs),
		MemAvailable: d.MemAvail,
	}
}
