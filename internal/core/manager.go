package core

import (
	"errors"
	"math/rand"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/fifo"
	"freeride/internal/freerpc"
	"freeride/internal/sidetask"
	"freeride/internal/simtime"
)

// ErrRejected is returned when no worker has enough GPU memory for a task
// (paper Alg. 1 line 13, RejectSideTask).
var ErrRejected = errors.New("core: side task rejected: no worker with enough GPU memory")

// DefaultMemSlack is the allocator headroom added to a task's profiled
// memory requirement when setting its MPS limit. Admission (Alg. 1) and the
// session's eligibility filter must both account for it, or a task admitted
// by the memory filter could receive an MPS limit exceeding the worker's
// available memory.
const DefaultMemSlack = 256 << 20

// Self-healing defaults, used when ManagerOptions.Lease is enabled but the
// companion knobs are zero.
const (
	// DefaultLease is the failure-detector lease: a worker that shows no
	// sign of life for this long is declared dead. Pings go out every
	// Lease/2, so a healthy worker refreshes its lease twice per period.
	DefaultLease = 250 * time.Millisecond
	// DefaultMaxRestarts bounds recovery attempts per task before it parks.
	DefaultMaxRestarts = 3
	// DefaultRetryBackoff is the base re-placement delay; attempt k waits
	// backoff·2^(k-1) plus deterministic jitter.
	DefaultRetryBackoff = 50 * time.Millisecond
)

// AdmitsMem is the Algorithm-1 memory predicate: available GPU memory must
// cover the task's profiled footprint plus the MPS-limit slack. Admission,
// the session's stage-eligibility filter and the Figure-9 OOM accounting
// all share it so they can never disagree.
func AdmitsMem(gpuMem, memBytes, slack int64) bool {
	return gpuMem >= memBytes+slack
}

// ManagerOptions tune the side task manager.
type ManagerOptions struct {
	// Tick is the Alg. 2 loop period: the manager acts only on the grid
	// epoch+k·Tick (see "timing: the Tick grid" below).
	Tick time.Duration
	// RPCTimeout bounds every manager→worker call.
	RPCTimeout time.Duration
	// MemSlack is added to a task's profiled memory requirement when
	// setting its MPS limit (allocator headroom). Admission requires
	// MemBytes+MemSlack to fit in the worker's available memory.
	MemSlack int64
	// Lease enables the self-healing manager: each worker is pinged every
	// Lease/2, and a worker with no sign of life (ping reply, state push,
	// exit report) for a full Lease is declared dead — its tasks are
	// re-placed onto eligible peers with exponential backoff, resuming from
	// their last checkpoint. Zero disables recovery: a lost worker then
	// retires its tasks forever, the pre-lease behaviour.
	Lease time.Duration
	// MaxRestarts bounds recovery attempts per task; once exhausted the
	// task parks instead of thrashing. 0 = DefaultMaxRestarts.
	MaxRestarts int
	// Seed drives the recovery jitter rng. All recovery timing comes from
	// the engine clock plus this seed — never from wall time — so
	// same-seed fault runs are bit-identical. 0 = 1.
	Seed int64
	// Replan arms online re-profiling and re-planning: a per-worker drift
	// detector over the bubble-report stream, and an Algorithm-1 re-plan on
	// detection (demote tasks whose bubbles shrank below their pause-time
	// fit, admit newly-fitting ones). Nil trusts the one-shot profile
	// forever, the paper's behaviour. Arming Replan also arms the recovery
	// machinery (backoff, incarnations, parking) demotions ride on, even
	// without a Lease. The detector config's zero value selects the
	// bubble-package defaults.
	Replan *bubble.DetectorConfig
	// SLOGuard is the serving workload's latency-aware admission guard: a
	// paused side task is started into a bubble only when the bubble's
	// remaining time is at least SLOGuard × the task's pause fit (profile step
	// + jitter + host overhead). The bubble stream under serving includes the
	// predicted inter-batch gaps, so the guard is exactly the paper-style
	// "pause fit vs next predicted batch arrival" admission test: 0 admits
	// into any open bubble (Algorithm 2's start rule untouched — the training
	// behaviour; maximum harvest, maximum overrun risk into mispredicted
	// batches), larger factors trade harvested GPU-seconds for fewer SLO
	// violations.
	SLOGuard float64
}

func (o *ManagerOptions) normalize() {
	if o.Tick <= 0 {
		o.Tick = time.Millisecond
	}
	if o.RPCTimeout <= 0 {
		o.RPCTimeout = time.Second
	}
	if o.Lease > 0 || o.Replan != nil {
		if o.MaxRestarts <= 0 {
			o.MaxRestarts = DefaultMaxRestarts
		}
		if o.Seed == 0 {
			o.Seed = 1
		}
	}
}

// TaskView is a snapshot of one task's manager-side record.
type TaskView struct {
	Spec        TaskSpec
	Worker      string
	State       sidetask.State
	SubmittedAt time.Duration
	Exited      bool
	ExitErr     string
	// Parked means the task's retry budget is exhausted: it is out of
	// service but not counted as a task failure.
	Parked bool
	// Restarts counts recovery attempts consumed so far.
	Restarts int
}

// ManagerStats aggregates control-plane counters for the evaluation.
type ManagerStats struct {
	Submitted      uint64
	Rejected       uint64
	BubblesAdded   uint64
	BubblesExpired uint64
	BubblesServed  uint64
	RPCs           uint64
	// BubbleTimeTotal is the summed duration of all reported bubbles.
	BubbleTimeTotal time.Duration
	// BubbleTimeServed is bubble time during which the worker's current
	// task was started.
	BubbleTimeServed time.Duration

	// Recovery counters (lease-enabled managers only; all zero otherwise).
	// Pings counts Worker.Ping probes sent — deliberately separate from
	// RPCs, which the zero-fault oracle pins against the lease-free runs.
	Pings uint64
	// WorkersLost counts workers declared dead (link closed or lease
	// expired).
	WorkersLost uint64
	// RestartedTasks counts distinct tasks restarted at least once.
	RestartedTasks uint64
	// Replacements counts successful re-placements in total.
	Replacements uint64
	// ParkedTasks counts tasks whose retry budget exhausted.
	ParkedTasks uint64
	// LostWork sums served bubble time lost between the last checkpoint and
	// each worker death or drift demotion — the work a restart could not
	// recover.
	LostWork time.Duration

	// Drift counters (replan-armed managers only; all zero otherwise, and
	// all zero under a zero-drift schedule — the drift oracle pins that).
	// DriftEvents counts detector firings across workers; Replans counts
	// re-plan passes (one per detection); Demotions counts tasks pulled off
	// a worker because the online profile no longer fits them; Revivals
	// counts parked tasks re-admitted after the profile grew back;
	// StaleAdmissions counts placement attempts the stale one-shot profile
	// would have accepted but the online profile rejected — the bad
	// admissions re-planning avoided.
	DriftEvents     uint64
	Replans         uint64
	Demotions       uint64
	Revivals        uint64
	StaleAdmissions uint64

	// SLODeferred counts task starts the SLO admission guard skipped
	// because the bubble's remaining time fell short of SLOGuard × the task's
	// pause fit (structurally zero with SLOGuard 0).
	SLODeferred uint64
}

// taskRecord is the manager-side task state (cache of the worker's truth).
type taskRecord struct {
	spec        TaskSpec
	workerIdx   int
	state       sidetask.State
	submittedAt time.Duration
	exited      bool
	exitErr     string
	initSent    bool
	// refArgs is the task's taskRef pre-boxed once: Init/Pause/Stop send it
	// on every cycle and must not re-box the struct per call.
	refArgs any
	// startedSeq dedupes starts within one bubble: the adoption number
	// (workerMeta.bubbleSeq) of the bubble the last start was sent for, 0
	// when none is outstanding or acknowledged.
	startedSeq uint64
	// servedFrom is when the current bubble's start succeeded.
	servedFrom time.Duration
	serving    bool

	// Recovery state. incarnation numbers the task's deployments; reports
	// carrying an older incarnation are discarded. restarts counts recovery
	// attempts against the budget; everRestarted marks the first successful
	// re-placement for the RestartedTasks stat; parked means the budget is
	// gone.
	incarnation   int
	restarts      int
	everRestarted bool
	parked        bool
	// ckpt is the last checkpointed progress (recorded from every
	// acknowledged pause); a new incarnation resumes from it.
	ckpt    TaskCkpt
	hasCkpt bool
	// servedSinceCkpt accrues served bubble time since the last checkpoint
	// — the work a crash loses.
	servedSinceCkpt time.Duration
	// retryTimer drives delayed re-placement (reusable handle).
	retryTimer *simtime.Timer
}

// pendingBubble is one reported-but-unserved bubble. visibleAt is the first
// instant the Algorithm-2 loop may act on the report — the grid instant
// strictly after its arrival — so a bubble is never adopted earlier, even
// when a reconcile and a report land on the same timestamp in either order.
type pendingBubble struct {
	b         bubble.Bubble
	visibleAt time.Duration
}

// workerMeta mirrors the paper's per-worker fields: GPUMem, TaskQueue,
// CurrentTask, CurrentBubble (§4.4).
type workerMeta struct {
	name    string
	peer    *freerpc.Peer
	gpuMem  int64
	stage   int
	queue   []*taskRecord
	current *taskRecord
	// bubble is the adopted (current) bubble, valid while hasBubble; it is
	// held by value, so bubbleSeq — unique per adoption across the manager —
	// is what tells two bubbles apart, not the storage they occupy.
	bubble    bubble.Bubble
	hasBubble bool
	bubbleSeq uint64
	// pending is kept ordered by Start (stable on ties) so the front is
	// always the next bubble Algorithm 2 could adopt; out-of-order reports
	// (livemode) no longer let a far-future bubble starve begun ones. One
	// adoption pops the front: deep-harvest holds 23 bubbles here on average
	// at a pop (65 at most), hence the O(1) queue.
	pending fifo.Queue[pendingBubble]
	alive   bool

	// Reconcile state. endTimer fires at the (rounded) end of the current
	// bubble — the pause point; startTimer at the instant the front pending
	// bubble becomes adoptable; kickTimer at the next grid instant after a
	// state push / RPC completion. All three reuse their Timer allocation
	// through simtime.Reschedule and share reconcileFn, so the steady
	// state allocates nothing. Each timer's When is its instant while it
	// is Pending, so re-arming an unchanged deadline is a no-op.
	endTimer    *simtime.Timer
	startTimer  *simtime.Timer
	kickTimer   *simtime.Timer
	reconcileFn func()

	// Failure-detector state (lease-enabled managers only). lastSeen is
	// the last instant the worker proved it was alive (ping reply or push);
	// leaseTimer fires only when the manager's liveness tick finds the lease
	// able to run out before the next tick (see armLease). It is a
	// reusable Reschedule handle with a pre-built callback.
	lastSeen   time.Duration
	pingDone   func(result any, err error)
	leaseTimer *simtime.Timer
	leaseFn    func()

	// Online re-profiling state (replan-armed managers only). est is this
	// worker's drift estimator (nil until the worker is baselined);
	// gpuMem0 keeps the one-shot profile's memory figure for the
	// stale-admission comparison after gpuMem is re-profiled; lastMem is
	// the most recent bubble report's MemAvailable, folded into gpuMem
	// only at re-plan time (so zero-drift admission arithmetic never moves).
	est     *bubble.Estimator
	gpuMem0 int64
	lastMem int64
}

func (w *workerMeta) numTasks() int {
	n := len(w.queue)
	if w.current != nil {
		n++
	}
	return n
}

// cancelTimers disarms the worker's reconcile timers (handles are kept
// for Reschedule reuse).
func (w *workerMeta) cancelTimers() {
	for _, t := range [...]*simtime.Timer{w.endTimer, w.startTimer, w.kickTimer, w.leaseTimer} {
		t.Cancel()
	}
}

// Manager is the side task manager (paper §3.2, §4.4): it places newly
// submitted tasks on workers (Alg. 1) and serves side tasks during bubbles
// (Alg. 2).
type Manager struct {
	eng  *simtime.Virtual
	opts ManagerOptions
	mux  *freerpc.Mux

	workers []*workerMeta
	tasks   map[string]*taskRecord
	stats   ManagerStats
	// epoch anchors the Tick grid: the loop acts at epoch+k*Tick, and every
	// wake-up and deadline is rounded onto those instants.
	epoch   time.Duration
	running bool
	// rng drives recovery backoff jitter (recovery-armed managers only);
	// seeded from ManagerOptions.Seed so fault runs are reproducible.
	rng *rand.Rand
	// taskOrder keeps submission order for every pass over all tasks
	// (re-plan, Tasks, Stop, StopAll): map iteration order is
	// nondeterministic, and the RPCs a pass issues must not be.
	taskOrder []*taskRecord
	// adoptions numbers bubble adoptions (see workerMeta.bubbleSeq).
	adoptions uint64
	// callPool recycles the contexts of the task-scoped calls (see workerCall)
	// and startPool the Worker.Start params, so a steady-state bubble cycle
	// allocates nothing.
	callPool  freerpc.Pool[workerCall]
	startPool freerpc.Pool[startArgs]
	// pingTimer is the liveness tick on the Lease/2 grid (lease-enabled
	// managers only; see armLease), a reusable Reschedule handle.
	pingTimer *simtime.Timer
	pingFn    func()
}

// NewManager builds a manager. Its RPC methods (bubble reports, task
// submission) are served on Mux().
func NewManager(eng *simtime.Virtual, opts ManagerOptions) *Manager {
	opts.normalize()
	m := &Manager{
		eng:   eng,
		opts:  opts,
		mux:   freerpc.NewMux(),
		tasks: make(map[string]*taskRecord),
	}
	if opts.Lease > 0 || opts.Replan != nil {
		m.rng = rand.New(rand.NewSource(opts.Seed))
	}
	m.pingFn = m.pingTick
	freerpc.HandleFunc(m.mux, "Manager.AddBubble", func(b bubble.Bubble) (any, error) {
		m.AddBubble(b)
		return nil, nil
	})
	freerpc.HandleFunc(m.mux, "Manager.Submit", func(spec TaskSpec) (any, error) {
		if err := spec.Profile.Validate(); err != nil {
			return nil, err
		}
		if err := m.Submit(spec); err != nil {
			return nil, err
		}
		return map[string]string{"status": "accepted"}, nil
	})
	freerpc.HandleFunc(m.mux, "Manager.TaskExited", m.onTaskExited)
	freerpc.HandleFunc(m.mux, "Manager.TaskState", m.onTaskState)
	return m
}

// Mux returns the manager's RPC dispatch table (for attaching peers).
func (m *Manager) Mux() *freerpc.Mux { return m.mux }

// AddWorker registers a worker reachable through peer, serving the GPU of
// the given pipeline stage with the given side-task-available memory. If
// the connection drops, the worker is marked dead: its queued and current
// tasks are recorded as stopped, future placements skip it, and Algorithm 2
// no longer serves its bubbles — training itself is never affected (the
// control plane is off the training path).
func (m *Manager) AddWorker(name string, stage int, gpuMem int64, peer *freerpc.Peer) {
	w := &workerMeta{
		name: name, peer: peer, gpuMem: gpuMem, stage: stage, alive: true,
		gpuMem0: gpuMem, lastMem: gpuMem,
	}
	w.reconcileFn = func() { m.reconcile(w) }
	w.pingDone = func(result any, err error) { m.pingReplied(w, result, err) }
	w.leaseFn = func() { m.checkLease(w) }
	m.workers = append(m.workers, w)
	// Workers may join a running manager (livemode): fold them into the
	// reconcile schedule at the next grid instant.
	m.wake(w)
	m.armLease(w)
	peer.Conn().OnClose(func() { m.workerLost(w, "worker lost") })
}

// Start begins serving Algorithm 2: it anchors the Tick grid and arms the
// per-worker reconcile schedule.
func (m *Manager) Start() {
	if m.running {
		return
	}
	m.running = true
	m.epoch = m.eng.Now()
	for _, w := range m.workers {
		m.armLease(w)
	}
	// One pass per worker on the first grid instant; reconciles cascade
	// from there, driven purely by events and armed deadlines.
	for _, w := range m.workers {
		if w.alive {
			m.kick(w, m.eventInstant(m.epoch))
		}
	}
}

// Stop halts the loop (tasks keep their current state).
func (m *Manager) Stop() {
	m.running = false
	m.pingTimer.Cancel()
	for _, w := range m.workers {
		w.cancelTimers()
	}
	for _, rec := range m.taskOrder {
		rec.retryTimer.Cancel()
	}
}

// Stats snapshots the manager counters.
func (m *Manager) Stats() ManagerStats {
	return m.stats
}

// Tasks snapshots all task records, in submission order.
func (m *Manager) Tasks() []TaskView {
	out := make([]TaskView, 0, len(m.taskOrder))
	for _, r := range m.taskOrder {
		out = append(out, TaskView{
			Spec:        r.spec,
			Worker:      m.workers[r.workerIdx].name,
			State:       r.state,
			SubmittedAt: r.submittedAt,
			Exited:      r.exited,
			ExitErr:     r.exitErr,
			Parked:      r.parked,
			Restarts:    r.restarts,
		})
	}
	return out
}

// TaskWorker reports the worker currently hosting the named task; ok is
// false when the task is unknown or detached mid-recovery (backoff, parked).
// Exited tasks report their last host.
func (m *Manager) TaskWorker(name string) (string, bool) {
	rec, ok := m.tasks[name]
	if !ok || (!rec.exited && !m.placed(rec)) {
		return "", false
	}
	return m.workers[rec.workerIdx].name, true
}
