package core

import (
	"fmt"
	"time"

	"freeride/internal/container"
	"freeride/internal/freerpc"
	"freeride/internal/sidetask"
	"freeride/internal/simgpu"
	"freeride/internal/simtime"
)

// DefaultGrace is the framework-enforced mechanism's grace period: after a
// pause (or init) is initiated, the worker waits this long before checking
// that the task actually yielded the GPU, and SIGKILLs it otherwise
// (paper §4.5).
const DefaultGrace = 500 * time.Millisecond

// HarnessFactory builds a task harness from a wire spec. The default
// resolves the built-in tasks; custom deployments register their own.
type HarnessFactory func(spec TaskSpec) (*sidetask.Harness, error)

// BuiltinHarnessFactory resolves the six built-in side tasks.
func BuiltinHarnessFactory(spec TaskSpec) (*sidetask.Harness, error) {
	return sidetask.NewBuiltin(spec.Profile, spec.Mode, spec.WorkScale, spec.Seed)
}

// WorkerConfig configures one side task worker (one per GPU, paper §3.2).
type WorkerConfig struct {
	Name string
	// Grace is the framework-enforced kill delay; DefaultGrace if zero.
	Grace time.Duration
	// Factory builds harnesses; BuiltinHarnessFactory if nil.
	Factory HarnessFactory
	// DisableEnforcement turns off the framework-enforced kill checks
	// (grace-period and init-hang). Used by the Figure-8 "without limit"
	// scenarios and the enforcement ablation.
	DisableEnforcement bool
}

// WorkerStats counts worker-side events for the evaluation.
type WorkerStats struct {
	Created     uint64
	Inits       uint64
	Starts      uint64
	Pauses      uint64
	Stops       uint64
	GraceKills  uint64
	InitKills   uint64
	TaskExits   uint64
	TaskErrExit uint64
}

// workerTask is one deployed side task.
type workerTask struct {
	spec TaskSpec
	// incarnation echoes createArgs.Incarnation in every report, letting
	// the manager discard reports from replaced deployments.
	incarnation int
	harness     *sidetask.Harness
	cont        *container.Container
	// grace is the task's reusable framework-enforcement timer: every
	// pause re-arms the same handle (simtime.Reschedule) with the same
	// pre-built callback, so a pause/start cycle costs no allocation and no
	// event-queue surgery beyond the re-arm itself.
	grace   *simtime.Timer
	graceFn func()
	// stateArgs pre-boxes the Manager.TaskState payload for each life-cycle
	// state, and exitOK the clean Manager.TaskExited payload: the worker
	// pushes one notification per transition for the whole run and must not
	// re-box a taskStatus per push (only error exits, which carry a dynamic
	// message, still allocate).
	stateArgs [int(sidetask.StateStopped) + 1]any
	exitOK    any
}

// stateBox returns the pre-boxed TaskState payload for s.
func (t *workerTask) stateBox(s sidetask.State) any {
	if s >= 0 && int(s) < len(t.stateArgs) && t.stateArgs[s] != nil {
		return t.stateArgs[s]
	}
	return taskStatus{Name: t.spec.Name, State: int(s)}
}

// Worker owns the side tasks of one GPU: it creates their containers on top
// of the MPS memory limits, relays the manager's state transitions, and
// enforces the execution-time limits.
type Worker struct {
	eng    *simtime.Virtual
	cfg    WorkerConfig
	device *simgpu.Device
	ctrs   *container.Runtime

	tasks map[string]*workerTask
	// roster lists tasks in create order: Worker.Ping snapshots walk it
	// instead of the map so reply order is deterministic.
	roster   []*workerTask
	stats    WorkerStats
	notifyFn func(method string, params any) // manager notification channel
	// crashed marks a fault-plane hard kill: the worker stops reporting
	// forever and its task table is gone; errCrashed is what it answers
	// pings with from then on.
	crashed    bool
	errCrashed error
	// wedgeUntil suppresses notifications until the given engine instant
	// (fault-plane wedge: the worker runs but stops reporting).
	wedgeUntil time.Duration
	// Replies come from worker-owned pools and return to them once the
	// manager has consumed them (see freerpc.Msg); a reply lost on the link
	// is simply never seen again.
	statusPool freerpc.Pool[taskStatus]
	pingPool   freerpc.Pool[pingReply]
}

// NewWorker builds a worker for one device.
func NewWorker(eng *simtime.Virtual, device *simgpu.Device, ctrs *container.Runtime, cfg WorkerConfig) *Worker {
	if cfg.Grace <= 0 {
		cfg.Grace = DefaultGrace
	}
	if cfg.Factory == nil {
		cfg.Factory = BuiltinHarnessFactory
	}
	if cfg.Name == "" {
		cfg.Name = "worker-" + device.Name()
	}
	w := &Worker{
		eng:    eng,
		cfg:    cfg,
		device: device,
		ctrs:   ctrs,
		tasks:  make(map[string]*workerTask),

		errCrashed: fmt.Errorf("worker %s: crashed", cfg.Name),
	}
	return w
}

// Name reports the worker name.
func (w *Worker) Name() string { return w.cfg.Name }

// Device returns the worker's GPU.
func (w *Worker) Device() *simgpu.Device { return w.device }

// Stats snapshots the worker counters.
func (w *Worker) Stats() WorkerStats {
	return w.stats
}

// Harness exposes a deployed task's harness for measurement (simulation
// only; the live daemons report over RPC instead).
func (w *Worker) Harness(name string) (*sidetask.Harness, bool) {
	t, ok := w.tasks[name]
	if !ok {
		return nil, false
	}
	return t.harness, true
}

// RegisterOn installs the worker's RPC methods on a mux.
func (w *Worker) RegisterOn(mux *freerpc.Mux) {
	freerpc.HandleFunc(mux, "Worker.Create", w.handleCreate)
	freerpc.HandleFunc(mux, "Worker.Init", w.handleInit)
	freerpc.HandleFunc(mux, "Worker.Start", w.handleStart)
	freerpc.HandleFunc(mux, "Worker.Pause", w.handlePause)
	freerpc.HandleFunc(mux, "Worker.Stop", w.handleStop)
	freerpc.HandleFunc(mux, "Worker.Info", func(struct{}) (any, error) {
		return workerInfo{Name: w.cfg.Name, GPUMem: w.device.MemFree(), NumTasks: len(w.tasks)}, nil
	})
	freerpc.HandleFunc(mux, "Worker.Ping", func(struct{}) (any, error) {
		return w.pingStatus()
	})
}

// pingStatus answers Worker.Ping: the worker's name plus a status snapshot
// of every deployed task, in create order. A crashed worker answers nothing
// useful — the error reply does not refresh the manager's lease, so a crash
// whose link somehow stays open is still detected by lease expiry. A merely
// wedged worker (notifications suppressed) still answers: the snapshot is
// the anti-entropy that heals the pushes the wedge swallowed.
func (w *Worker) pingStatus() (any, error) {
	if w.crashed {
		return nil, w.errCrashed
	}
	rep := w.pingPool.Get()
	rep.V.Name = w.cfg.Name
	rep.V.Tasks = rep.V.Tasks[:0]
	for _, t := range w.roster {
		rep.V.Tasks = append(rep.V.Tasks, w.status(t))
	}
	return rep, nil
}

// SetNotify installs the channel for worker→manager notifications (task
// exits). The function must be safe to call from engine context.
func (w *Worker) SetNotify(fn func(method string, params any)) {
	w.notifyFn = fn
}

func (w *Worker) notify(method string, params any) {
	fn := w.notifyFn
	if w.crashed || w.eng.Now() < w.wedgeUntil {
		fn = nil
	}
	if fn != nil {
		fn(method, params)
	}
}

// Crash simulates a hard worker failure (fault plane): notifications stop
// for good, every task container is killed — releasing its GPU state — and
// the task table is dropped. The worker keeps answering nothing useful; the
// manager learns of the death through its link closing or its lease
// expiring, exactly like a dead host.
func (w *Worker) Crash() {
	if w.crashed {
		return
	}
	w.crashed = true
	dead := w.roster
	w.roster = nil
	w.tasks = make(map[string]*workerTask)
	for _, t := range dead {
		t.grace.Cancel()
		t.cont.Kill()
	}
}

// WedgeFor suppresses the worker's state/exit notifications for the window
// (fault plane: a wedged reporter). Tasks keep executing; the manager's
// cache goes stale until the window ends or a ping snapshot heals it.
func (w *Worker) WedgeFor(window time.Duration) {
	if until := w.eng.Now() + window; until > w.wedgeUntil {
		w.wedgeUntil = until
	}
}

// handleCreate implements SUBMITTED→CREATED: build the harness, wrap it in
// a container with the MPS memory limit, start the process.
func (w *Worker) handleCreate(args createArgs) (any, error) {
	harness, err := w.cfg.Factory(args.Spec)
	if err != nil {
		return nil, fmt.Errorf("worker %s: factory: %w", w.cfg.Name, err)
	}
	if args.Ckpt != nil {
		// Restart-from-checkpoint: the new incarnation resumes from the
		// last progress the manager checkpointed.
		harness.Restore(sidetask.Counters{
			Steps:      args.Ckpt.Steps,
			KernelTime: time.Duration(args.Ckpt.KernelTimeNs),
			HostTime:   time.Duration(args.Ckpt.HostTimeNs),
			InsuffWait: time.Duration(args.Ckpt.InsuffNs),
		})
	}
	cspec := container.Spec{
		Name:        w.cfg.Name + "/" + args.Spec.Name,
		Device:      w.device,
		GPUMemLimit: args.MemLimitBytes,
	}
	if old, dup := w.tasks[args.Spec.Name]; dup {
		// A newer incarnation may re-land on a worker that still holds the
		// exited remains of an older one (e.g. after an injected kernel
		// fault); only a live duplicate is an error.
		if old.cont.Alive() {
			return nil, fmt.Errorf("worker %s: duplicate task %q", w.cfg.Name, args.Spec.Name)
		}
		delete(w.tasks, args.Spec.Name)
		for i, rt := range w.roster {
			if rt == old {
				w.roster = append(w.roster[:i], w.roster[i+1:]...)
				break
			}
		}
		// Free the exited container's name for the new incarnation.
		_ = w.ctrs.Remove(cspec.Name)
	}
	cont, err := harness.Launch(w.ctrs, cspec)
	if err != nil {
		return nil, fmt.Errorf("worker %s: container: %w", w.cfg.Name, err)
	}
	t := &workerTask{spec: args.Spec, incarnation: args.Incarnation, harness: harness, cont: cont}
	for s := sidetask.StateSubmitted; s <= sidetask.StateStopped; s++ {
		t.stateArgs[s] = taskStatus{Name: args.Spec.Name, State: int(s), Incarnation: args.Incarnation}
	}
	t.exitOK = taskStatus{Name: args.Spec.Name, Exited: true, Incarnation: args.Incarnation}
	w.tasks[args.Spec.Name] = t
	w.roster = append(w.roster, t)
	w.stats.Created++

	// Push every state change to the manager so its cache never goes
	// stale (the paper's manager likewise learns transitions through its
	// RPC layer).
	harness.SetStateListener(func(s sidetask.State) {
		w.notify("Manager.TaskState", t.stateBox(s))
	})

	cont.Process().OnExit(func(err error) {
		w.stats.TaskExits++
		if err != nil {
			w.stats.TaskErrExit++
		}
		if err == nil {
			w.notify("Manager.TaskExited", t.exitOK)
			return
		}
		w.notify("Manager.TaskExited", taskStatus{Name: args.Spec.Name, Exited: true, ExitErr: err.Error(), Incarnation: args.Incarnation})
	})
	return taskStatus{Name: args.Spec.Name, State: int(harness.State())}, nil
}

func (w *Worker) lookup(name string) (*workerTask, error) {
	t, ok := w.tasks[name]
	if !ok {
		return nil, fmt.Errorf("worker %s: unknown task %q", w.cfg.Name, name)
	}
	return t, nil
}

// handleInit initiates CREATED→PAUSED and arms the init-hang protection.
func (w *Worker) handleInit(ref taskRef) (any, error) {
	t, err := w.lookup(ref.Name)
	if err != nil {
		return nil, err
	}
	switch t.harness.State() {
	case sidetask.StateSubmitted, sidetask.StateCreated:
		// Queue-tolerant: an Init arriving while CreateSideTask is still
		// loading is processed right after it finishes.
	default:
		return w.statusReply(t), nil
	}
	t.harness.Deliver(sidetask.Command{Transition: sidetask.TransitionInit})
	w.stats.Inits++

	if w.cfg.DisableEnforcement {
		return w.statusReply(t), nil
	}
	// The init command may be queued behind a still-running CreateSideTask,
	// so the hang budget covers both phases.
	timeout := t.spec.Profile.CreateTime + 3*t.spec.Profile.InitTime + w.cfg.Grace
	w.eng.ScheduleDetachedBy(simtime.OwnerManager, timeout, func() {
		if t.harness.State() == sidetask.StateCreated && t.cont.Alive() {
			w.stats.InitKills++
			t.cont.Kill()
		}
	})
	return w.statusReply(t), nil
}

// handleStart initiates PAUSED→RUNNING with the bubble deadline; a start
// for a RUNNING task extends its deadline. It cancels any pending grace
// check (the task is wanted again).
func (w *Worker) handleStart(args startArgs) (any, error) {
	t, err := w.lookup(args.Name)
	if err != nil {
		return nil, err
	}
	t.grace.Cancel() // keep the handle: the next pause re-arms it
	st := t.harness.State()
	switch st {
	case sidetask.StatePaused, sidetask.StateRunning:
		if t.harness.Mode() == sidetask.ModeImperative {
			// Imperative resume is SIGCONT (paper §4.2); once
			// RunGpuWorkload is in flight, the harness never reads its
			// inbox again, so only the first start is delivered as a
			// command.
			if t.cont.Process().Stopped() {
				t.cont.Cont()
			}
			if st == sidetask.StatePaused {
				t.harness.Deliver(sidetask.Command{
					Transition: sidetask.TransitionStart,
					BubbleEnd:  time.Duration(args.BubbleEndNs),
				})
			}
		} else {
			t.harness.Deliver(sidetask.Command{
				Transition: sidetask.TransitionStart,
				BubbleEnd:  time.Duration(args.BubbleEndNs),
			})
		}
		w.stats.Starts++
		s := w.statusReply(t)
		s.V.Started = true
		return s, nil
	default:
		return w.statusReply(t), nil
	}
}

// handlePause initiates RUNNING→PAUSED and arms the framework-enforced
// check: after the grace period the task must have acknowledged the pause
// and the GPU must be free of its kernels, or it is SIGKILLed (paper §4.5,
// Figure 8a).
func (w *Worker) handlePause(ref taskRef) (any, error) {
	t, err := w.lookup(ref.Name)
	if err != nil {
		return nil, err
	}
	if t.harness.State() != sidetask.StateRunning {
		return w.statusReply(t), nil
	}
	if t.harness.Mode() == sidetask.ModeImperative {
		// Transparent suspension; in-flight kernels keep running (the
		// asynchronous-kernel overhead of §5).
		t.cont.Stop()
	} else {
		t.harness.Deliver(sidetask.Command{Transition: sidetask.TransitionPause})
	}
	w.stats.Pauses++

	if w.cfg.DisableEnforcement {
		return w.statusReply(t), nil
	}
	if t.graceFn == nil {
		gpu := t.cont.GPU()
		t.graceFn = func() {
			if !t.cont.Alive() {
				return
			}
			misbehaving := false
			if t.harness.Mode() == sidetask.ModeImperative {
				// Suspended processes are fine; a busy GPU means a kernel is
				// still hogging SMs long past the bubble.
				misbehaving = gpu != nil && gpu.Busy()
			} else {
				misbehaving = t.harness.State() == sidetask.StateRunning ||
					(gpu != nil && gpu.Busy())
			}
			if misbehaving {
				w.stats.GraceKills++
				t.cont.Kill()
			}
		}
	}
	t.grace = w.eng.RescheduleBy(simtime.OwnerManager, t.grace, w.cfg.Grace, t.graceFn)
	return w.statusReply(t), nil
}

// handleStop initiates →STOPPED and kills the container if the task does
// not wind down within the grace period.
func (w *Worker) handleStop(ref taskRef) (any, error) {
	t, err := w.lookup(ref.Name)
	if err != nil {
		return nil, err
	}
	if t.harness.Mode() == sidetask.ModeImperative && t.cont.Process().Stopped() {
		t.cont.Cont() // let it observe the stop... or die trying
	}
	t.harness.Deliver(sidetask.Command{Transition: sidetask.TransitionStop})
	w.stats.Stops++
	w.eng.ScheduleDetachedBy(simtime.OwnerManager, w.cfg.Grace, func() {
		if t.cont.Alive() {
			t.cont.Kill()
		}
	})
	return w.statusReply(t), nil
}

// statusReply is status(t) in a pooled reply.
func (w *Worker) statusReply(t *workerTask) *freerpc.Pooled[taskStatus] {
	r := w.statusPool.Get()
	r.V = w.status(t)
	return r
}

func (w *Worker) status(t *workerTask) taskStatus {
	c := t.harness.Counters()
	exited, exitErr := t.cont.ExitInfo()
	msg := ""
	if exitErr != nil {
		msg = exitErr.Error()
	}
	return taskStatus{
		Name:        t.spec.Name,
		State:       int(t.harness.State()),
		Exited:      exited,
		ExitErr:     msg,
		Incarnation: t.incarnation,
		TaskCkpt: TaskCkpt{
			Steps:        c.Steps,
			KernelTimeNs: int64(c.KernelTime),
			HostTimeNs:   int64(c.HostTime),
			InsuffNs:     int64(c.InsuffWait),
		},
	}
}
