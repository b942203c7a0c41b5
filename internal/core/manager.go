package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/fifo"
	"freeride/internal/freerpc"
	"freeride/internal/sidetask"
	"freeride/internal/simgpu"
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
	// RetryBackoff is the base re-placement delay, doubled per attempt with
	// deterministic jitter. 0 = DefaultRetryBackoff.
	RetryBackoff time.Duration
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
	// without a Lease.
	Replan *ReplanOptions
	// SLO arms the serving workload's latency-aware admission guard (nil
	// leaves Algorithm 2's start rule untouched — the training behaviour).
	SLO *SLOOptions
}

// SLOOptions tune the SLO admission guard of the serving workload: a paused
// side task is started into a bubble only when the bubble's remaining time
// is at least Guard × the task's pause fit (profile step + jitter + host
// overhead). The bubble stream under serving includes the predicted
// inter-batch gaps, so the guard is exactly the paper-style "pause fit vs
// next predicted batch arrival" admission test: Guard 0 admits into any
// open bubble (maximum harvest, maximum overrun risk into mispredicted
// batches), larger factors trade harvested GPU-seconds for fewer SLO
// violations. Guard 0 is a structural identity — every bubble the
// reconcile loop starts tasks into has strictly positive remaining time —
// which the dormant-serving oracle (FREERIDE_ORACLE_SERVING=on) pins
// against the training grid.
type SLOOptions struct {
	Guard float64
}

// ReplanOptions tune the online re-profiling plane.
type ReplanOptions struct {
	// Detector tunes the per-worker EWMA+CUSUM estimator; the zero value
	// selects the bubble-package defaults.
	Detector bubble.DetectorConfig
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
		if o.RetryBackoff <= 0 {
			o.RetryBackoff = DefaultRetryBackoff
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
	// re-plan passes (every detection plus every pushed profile update);
	// Demotions counts tasks pulled off a worker because the online profile
	// no longer fits them; Revivals counts parked tasks re-admitted after
	// the profile grew back; StaleAdmissions counts placement attempts the
	// stale one-shot profile would have accepted but the online profile
	// rejected — the bad admissions re-planning avoided.
	DriftEvents     uint64
	Replans         uint64
	Demotions       uint64
	Revivals        uint64
	StaleAdmissions uint64

	// SLODeferred counts task starts the SLO admission guard skipped
	// because the bubble's remaining time fell short of Guard × the task's
	// pause fit (SLO-armed managers only; structurally zero with Guard 0,
	// which the dormant-serving oracle pins).
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
	// state allocates nothing. The *At fields record each
	// timer's intended instant (valid while it is Pending) so re-arming an
	// unchanged deadline is a no-op on the wall engine too, where
	// Timer.When drifts by the arming latency.
	endTimer    *simtime.Timer
	startTimer  *simtime.Timer
	kickTimer   *simtime.Timer
	endAt       time.Duration
	startAt     time.Duration
	kickAt      time.Duration
	reconcileFn func()
	endName     string
	startName   string
	kickName    string

	// Failure-detector state (lease-enabled managers only). lastSeen is
	// the last instant the worker proved it was alive (ping reply or push);
	// pingTimer fires every Lease/2, leaseTimer only when a tick finds the
	// lease able to run out before the next one (see armLeaseLocked). Both
	// are reusable Reschedule handles with pre-built callbacks.
	lastSeen   time.Duration
	pingTimer  *simtime.Timer
	pingFn     func()
	pingDone   func(result any, err error)
	pingName   string
	leaseTimer *simtime.Timer
	leaseFn    func()
	leaseName  string

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

// cancelTimersLocked disarms the worker's reconcile timers (handles are kept
// for Reschedule reuse).
func (w *workerMeta) cancelTimersLocked() {
	if w.endTimer != nil {
		w.endTimer.Cancel()
	}
	if w.startTimer != nil {
		w.startTimer.Cancel()
	}
	if w.kickTimer != nil {
		w.kickTimer.Cancel()
	}
	if w.pingTimer != nil {
		w.pingTimer.Cancel()
	}
	if w.leaseTimer != nil {
		w.leaseTimer.Cancel()
	}
}

// Manager is the side task manager (paper §3.2, §4.4): it places newly
// submitted tasks on workers (Alg. 1) and serves side tasks during bubbles
// (Alg. 2).
type Manager struct {
	eng  simtime.Engine
	opts ManagerOptions
	mux  *freerpc.Mux

	// mu rides the engine ownership regime (see simtime.Guard).
	mu      simtime.Guard
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
	// callPool recycles the contexts of the per-cycle calls (see workerCall)
	// and startPool their Worker.Start params, so a steady-state bubble cycle
	// allocates nothing.
	callPool  freerpc.Pool[workerCall]
	startPool freerpc.Pool[startArgs]
}

// NewManager builds a manager. Its RPC methods (bubble reports, task
// submission) are served on Mux().
func NewManager(eng simtime.Engine, opts ManagerOptions) *Manager {
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
	m.mu.Bind(eng)
	m.callPool.Bind(eng)
	m.startPool.Bind(eng)
	freerpc.HandleFunc(m.mux, "Manager.AddBubble", func(d BubbleDTO) (any, error) {
		m.AddBubble(FromBubbleDTO(d))
		return nil, nil
	})
	freerpc.HandleFunc(m.mux, "Manager.Submit", func(spec TaskSpec) (any, error) {
		if err := m.Submit(spec); err != nil {
			return nil, err
		}
		return map[string]string{"status": "accepted"}, nil
	})
	freerpc.HandleFunc(m.mux, "Manager.TaskExited", func(st taskStatus) (any, error) {
		m.onTaskExited(st)
		return nil, nil
	})
	freerpc.HandleFunc(m.mux, "Manager.ProfileUpdate", func(d ProfileUpdateDTO) (any, error) {
		m.ProfileUpdate(d)
		return nil, nil
	})
	freerpc.HandleFunc(m.mux, "Manager.TaskState", func(st taskStatus) (any, error) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if rec, ok := m.tasks[st.Name]; ok && !rec.exited && !rec.parked && st.Incarnation == rec.incarnation {
			w := m.workers[rec.workerIdx]
			if m.opts.Lease > 0 {
				w.lastSeen = m.eng.Now()
			}
			rec.state = sidetask.State(st.State)
			m.wakeLocked(w)
		}
		return nil, nil
	})
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
		endName:   "manager-bubble-end:" + name,
		startName: "manager-bubble-start:" + name,
		kickName:  "manager-kick:" + name,
		pingName:  "manager-ping:" + name,
		leaseName: "manager-lease:" + name,
	}
	w.reconcileFn = func() { m.reconcile(w) }
	w.pingFn = func() { m.pingWorker(w) }
	w.pingDone = func(result any, err error) { m.pingReplied(w, result, err) }
	w.leaseFn = func() { m.checkLease(w) }
	m.mu.Lock()
	m.workers = append(m.workers, w)
	// Workers may join a running manager (livemode): fold them into the
	// reconcile schedule at the next grid instant.
	m.wakeLocked(w)
	m.armLeaseLocked(w)
	m.mu.Unlock()
	peer.Conn().OnClose(func() { m.workerLost(w) })
}

// workerLost handles a closed worker link: the worker is declared dead.
func (m *Manager) workerLost(w *workerMeta) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workerLostLocked(w, "worker lost")
}

// workerLostLocked declares a worker dead — shared by the link-close path
// and the lease-expiry path. With recovery disabled (Lease == 0) its tasks
// are retired forever, the pre-lease behaviour; with a lease configured
// each orphaned task enters the backoff/re-place cycle.
func (m *Manager) workerLostLocked(w *workerMeta, cause string) {
	if !w.alive {
		return
	}
	w.alive = false
	if m.running {
		m.stats.WorkersLost++
	}
	orphans := make([]*taskRecord, 0, w.numTasks())
	if w.current != nil {
		orphans = append(orphans, w.current)
	}
	orphans = append(orphans, w.queue...)
	w.current = nil
	w.queue = nil
	w.hasBubble = false
	w.pending = fifo.Queue[pendingBubble]{}
	w.cancelTimersLocked()
	for _, rec := range orphans {
		if rec.exited || rec.parked {
			continue
		}
		if m.opts.Lease <= 0 || !m.running {
			rec.exited = true
			rec.exitErr = cause
			rec.state = sidetask.StateStopped
			continue
		}
		m.planRecoveryLocked(rec, cause)
	}
}

// --- failure detector: leases and pings -----------------------------------

// armLeaseLocked (re)starts w's failure detector: the lease begins now and
// the worker is pinged every Lease/2. No-op unless the manager is running
// with a lease configured.
//
// The lease check itself is armed by the ping tick, and only for an instant
// at which, if nothing else happens first, the worker is dead: a tick at
// `now` arms it at e = lastSeen+Lease when e ≤ now+Lease/2. Every possible
// expiry e has exactly one tick in [e−Lease/2, e); if the worker is going to
// die at e, lastSeen is already final at that tick, so the check runs at e —
// and a worker that keeps answering never has one armed (its lastSeen is
// younger than Lease/2 at every tick). Tie order: the tick arms the check
// before it re-arms itself, so a check due at the instant of the next tick
// runs first and a worker dead at that instant is not pinged again. (On the
// wall engine a tick can only run late; one that overshoots e arms the check
// with a delay clamped to zero, so detection is late by that jitter at most.)
func (m *Manager) armLeaseLocked(w *workerMeta) {
	if m.opts.Lease <= 0 || !m.running || !w.alive {
		return
	}
	w.lastSeen = m.eng.Now()
	w.pingTimer = simtime.Reschedule(m.eng, w.pingTimer, m.opts.Lease/2, w.pingName, w.pingFn)
}

// pingWorker is the ping tick: it arms the lease check if the lease can run
// out before the next tick (see armLeaseLocked), re-arms itself, and probes
// w for liveness. The reply refreshes the lease and doubles as anti-entropy:
// its status snapshot heals state a faulted link dropped.
func (m *Manager) pingWorker(w *workerMeta) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.running || !w.alive {
		return
	}
	if expiry, now := w.lastSeen+m.opts.Lease, m.eng.Now(); expiry <= now+m.opts.Lease/2 {
		w.leaseTimer = simtime.Reschedule(m.eng, w.leaseTimer, expiry-now, w.leaseName, w.leaseFn)
	}
	w.pingTimer = simtime.Reschedule(m.eng, w.pingTimer, m.opts.Lease/2, w.pingName, w.pingFn)
	m.stats.Pings++
	w.peer.Go("Worker.Ping", nil, m.opts.Lease/2, w.pingDone)
}

// pingReplied completes a Worker.Ping (w.pingDone, built once per worker).
func (m *Manager) pingReplied(w *workerMeta, result any, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil || !w.alive {
		return
	}
	w.lastSeen = m.eng.Now()
	if reply, derr := freerpc.DecodeResult[pingReply](result); derr == nil {
		for _, st := range reply.Tasks {
			m.applyPingStatusLocked(st)
		}
	}
}

// checkLease fires at the instant the lease the arming tick saw would run
// out: a worker with no sign of life for a full Lease is declared dead. A
// worker refreshed since is left alone — the tick that covers its new expiry
// arms the next check, so this one never re-arms itself.
func (m *Manager) checkLease(w *workerMeta) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.running || !w.alive || m.opts.Lease <= 0 {
		return
	}
	if m.eng.Now()-w.lastSeen >= m.opts.Lease {
		m.workerLostLocked(w, "lease expired")
	}
}

// applyPingStatusLocked folds one ping-reply status into the manager's
// record. Anti-entropy is forward-only: per-link FIFO delivery means a state
// push always arrives no later than a ping reply sampling the same
// transition, so in fault-free runs the snapshot can never be newer than the
// record — only transitions a lost push would have carried are applied (an
// exit, or the init-completion PAUSED the manager has not yet seen). A stale
// reply can therefore never regress an optimistic record.
func (m *Manager) applyPingStatusLocked(st taskStatus) {
	rec, ok := m.tasks[st.Name]
	if !ok || rec.exited || rec.parked || st.Incarnation != rec.incarnation {
		return
	}
	if st.Exited {
		m.taskExitedLocked(rec, st)
		m.wakeLocked(m.workers[rec.workerIdx])
		return
	}
	if sidetask.State(st.State) == sidetask.StatePaused && rec.state == sidetask.StateCreated {
		rec.state = sidetask.StatePaused
		m.wakeLocked(m.workers[rec.workerIdx])
	}
}

// --- recovery: backoff, re-placement, checkpoints -------------------------

// planRecoveryLocked moves rec into the backoff/re-place cycle after its
// deployment died (worker lost, create failure, injected kernel fault). The
// attempt counter is charged here; an exhausted budget parks the task
// instead of thrashing. All timing comes from the engine clock plus the
// seeded rng — never wall time — so same-seed fault runs are bit-identical.
func (m *Manager) planRecoveryLocked(rec *taskRecord, cause string) {
	m.stats.LostWork += rec.servedSinceCkpt
	rec.servedSinceCkpt = 0
	rec.serving = false
	rec.startedSeq = 0
	rec.initSent = false
	rec.state = sidetask.StateSubmitted
	rec.incarnation++
	rec.restarts++
	if rec.restarts > m.opts.MaxRestarts {
		rec.parked = true
		rec.state = sidetask.StateStopped
		rec.exitErr = cause + " (retry budget exhausted; parked)"
		m.stats.ParkedTasks++
		return
	}
	shift := rec.restarts - 1
	if shift > 16 {
		shift = 16
	}
	backoff := m.opts.RetryBackoff << shift
	delay := backoff + time.Duration(m.rng.Int63n(int64(backoff/2)+1))
	rec.retryTimer = simtime.Reschedule(m.eng, rec.retryTimer, delay,
		"task-retry:"+rec.spec.Name, func() { m.replaceTask(rec) })
}

// replaceTask re-runs Algorithm 1 for a recovering task when its backoff
// expires. No eligible worker re-enters the backoff cycle (consuming another
// attempt) rather than busy-retrying.
func (m *Manager) replaceTask(rec *taskRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.replaceTaskLocked(rec)
}

func (m *Manager) replaceTaskLocked(rec *taskRecord) {
	if !m.running || rec.exited || rec.parked || m.placedLocked(rec) {
		return
	}
	selected := m.placeLocked(rec.spec)
	if selected < 0 {
		m.planRecoveryLocked(rec, "no eligible worker")
		return
	}
	rec.workerIdx = selected
	rec.state = sidetask.StateSubmitted
	w := m.workers[selected]
	w.queue = append(w.queue, rec)
	m.stats.Replacements++
	if !rec.everRestarted {
		rec.everRestarted = true
		m.stats.RestartedTasks++
	}
	m.wakeLocked(w)
	m.sendCreateLocked(w, rec)
}

// placedLocked reports whether rec is attached (current or queued) to a live
// worker.
func (m *Manager) placedLocked(rec *taskRecord) bool {
	w := m.workers[rec.workerIdx]
	if !w.alive {
		return false
	}
	if w.current == rec {
		return true
	}
	for _, q := range w.queue {
		if q == rec {
			return true
		}
	}
	return false
}

// detachLocked removes rec from its worker's current/queue slots.
func (m *Manager) detachLocked(rec *taskRecord) {
	w := m.workers[rec.workerIdx]
	if w.current == rec {
		w.current = nil
		return
	}
	for i, q := range w.queue {
		if q == rec {
			w.queue = removeAt(w.queue, i)
			return
		}
	}
}

// isInfraFault classifies a task exit: only injected infrastructure faults
// are recoverable. Every other exit — clean completion, a task bug, a grace
// kill — is the task's own outcome and stays terminal, which is what keeps
// zero-fault lease-enabled runs bit-identical to the lease-free oracle.
func isInfraFault(exitErr string) bool {
	return strings.Contains(exitErr, simgpu.InjectedFaultMsg)
}

// Stats snapshots the manager counters.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Tasks snapshots all task records, in submission order.
func (m *Manager) Tasks() []TaskView {
	m.mu.Lock()
	defer m.mu.Unlock()
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
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.tasks[name]
	if !ok {
		return "", false
	}
	if !rec.exited && !m.placedLocked(rec) {
		return "", false
	}
	return m.workers[rec.workerIdx].name, true
}

// Submit places a new side task (paper Algorithm 1): among workers with
// enough available GPU memory, pick the one with the fewest tasks; reject
// if none qualifies. "Enough" accounts for the MemSlack headroom the MPS
// limit will carry: a worker whose memory merely matches the profiled
// footprint cannot honor the limit MemBytes+MemSlack.
func (m *Manager) Submit(spec TaskSpec) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.tasks[spec.Name]; dup {
		return fmt.Errorf("core: duplicate task name %q", spec.Name)
	}
	m.stats.Submitted++

	selected := m.placeLocked(spec)
	if selected < 0 {
		m.stats.Rejected++
		return ErrRejected
	}

	rec := &taskRecord{
		spec:        spec,
		workerIdx:   selected,
		state:       sidetask.StateSubmitted,
		submittedAt: m.eng.Now(),
		refArgs:     taskRef{Name: spec.Name},
	}
	m.tasks[spec.Name] = rec
	m.taskOrder = append(m.taskOrder, rec)
	w := m.workers[selected]
	w.queue = append(w.queue, rec)
	m.wakeLocked(w)

	// SUBMITTED→CREATED happens on the worker.
	m.sendCreateLocked(w, rec)
	return nil
}

// placeLocked is the Algorithm-1 selection loop, shared by Submit and
// recovery re-placement: among live workers passing the AdmitsMem predicate
// (and the queue cap), the one with the fewest tasks; -1 if none qualifies.
func (m *Manager) placeLocked(spec TaskSpec) int {
	minTasks := int(^uint(0) >> 1)
	selected := -1
	for i, w := range m.workers {
		if !w.alive {
			continue
		}
		if w.est != nil && w.est.Drifted() {
			// The worker's one-shot profile is stale: admit against the
			// online estimate instead (memory from the report stream, bubble
			// fit from the estimator). Count the placements the stale
			// profile would have made — those are the bad admissions
			// re-planning avoids.
			if !m.fitsOnlineLocked(w, spec) {
				if AdmitsMem(w.gpuMem0, spec.Profile.MemBytes, m.opts.MemSlack) {
					m.stats.StaleAdmissions++
				}
				continue
			}
		} else if !AdmitsMem(w.gpuMem, spec.Profile.MemBytes, m.opts.MemSlack) {
			continue
		}
		if n := w.numTasks(); n < minTasks {
			minTasks = n
			selected = i
		}
	}
	return selected
}

// sendCreateLocked asks w to create rec's current incarnation, carrying the
// last checkpoint on re-placements. A failed create under recovery consumes
// an attempt and re-enters the backoff cycle; with recovery disabled it
// retires the task, the pre-lease behaviour.
func (m *Manager) sendCreateLocked(w *workerMeta, rec *taskRecord) {
	inc := rec.incarnation
	args := createArgs{
		Spec:          rec.spec,
		MemLimitBytes: rec.spec.Profile.MemBytes + m.opts.MemSlack,
		Incarnation:   inc,
	}
	if rec.hasCkpt {
		ck := rec.ckpt
		args.Ckpt = &ck
	}
	m.stats.RPCs++
	w.peer.Go("Worker.Create", args, m.opts.RPCTimeout, func(result any, err error) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if rec.incarnation != inc || rec.exited || rec.parked {
			return
		}
		if err != nil {
			if m.recoveryArmed() && m.running {
				m.detachLocked(rec)
				m.planRecoveryLocked(rec, "create failed: "+err.Error())
				return
			}
			rec.exited = true
			rec.exitErr = err.Error()
			rec.state = sidetask.StateStopped
			m.wakeLocked(w)
			return
		}
		if rec.state == sidetask.StateSubmitted {
			rec.state = sidetask.StateCreated
		}
		m.wakeLocked(w)
	})
}

// SubmitAndPlace is Submit plus the chosen worker's name, for logs/tests.
func (m *Manager) SubmitAndPlace(spec TaskSpec) (string, error) {
	if err := m.Submit(spec); err != nil {
		return "", err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.workers[m.tasks[spec.Name].workerIdx].name, nil
}

// AddBubble queues a bubble report for the worker serving its stage
// (step ➎: "add bubbles from pipeline training system to side task
// manager"). The report is inserted in Start order and the worker's
// reconcile schedule is updated.
func (m *Manager) AddBubble(b bubble.Bubble) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.BubblesAdded++
	m.stats.BubbleTimeTotal += b.Duration
	for _, w := range m.workers {
		if w.stage != b.Stage {
			continue
		}
		if m.opts.Replan != nil {
			// Feed the worker's drift estimator. Detection re-plans inline: the
			// report, the detection and the demote/admit decisions all land
			// on the same engine instant, before the drifted bubbles they
			// describe begin (reports precede their bubbles).
			w.lastMem = b.MemAvailable
			if w.est != nil {
				if dir := w.est.Observe(b.Duration); dir != bubble.DriftNone {
					m.stats.DriftEvents++
					m.replanLocked(w)
				}
			}
		}
		pb := pendingBubble{b: b, visibleAt: m.eventInstantLocked(m.eng.Now())}
		w.pending.Push(pb)
		for i := w.pending.Len() - 1; i > 0 && w.pending.At(i-1).b.Start > b.Start; i-- {
			*w.pending.At(i) = *w.pending.At(i - 1)
			*w.pending.At(i - 1) = pb
		}
		m.wakeLocked(w)
		return
	}
	// No worker for this stage: the bubble goes unharvested.
}

// Start begins serving Algorithm 2: it anchors the Tick grid and arms the
// per-worker reconcile schedule.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.running {
		m.mu.Unlock()
		return
	}
	m.running = true
	m.epoch = m.eng.Now()
	for _, w := range m.workers {
		m.armLeaseLocked(w)
	}
	// One pass per worker on the first grid instant; reconciles cascade
	// from there, driven purely by events and armed deadlines.
	for _, w := range m.workers {
		if w.alive {
			m.kickLocked(w, m.eventInstantLocked(m.epoch))
		}
	}
	m.mu.Unlock()
}

// Stop halts the loop (tasks keep their current state).
func (m *Manager) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running = false
	for _, w := range m.workers {
		w.cancelTimersLocked()
	}
	for _, rec := range m.taskOrder {
		if rec.retryTimer != nil {
			rec.retryTimer.Cancel()
		}
	}
}

// --- timing: the Tick grid ------------------------------------------------
//
// Algorithm 2 is a loop with period Tick: it acts at epoch+k*Tick, k ≥ 1,
// and an event processed at engine-time t is first seen at the grid instant
// strictly after t (a pass sharing t's timestamp does not see it). The loop
// is not run as a timer per Tick; each worker's reconciles are scheduled for
// exactly the grid instants at which a pass would find something to do, so
// every action carries the timestamp the literal loop would give it. That
// identity assumes control-plane messages are in flight for less than one
// Tick (RPC latency < Tick, the shipped configurations).

// eventInstantLocked reports the first instant the loop may act on an event
// processed at engine-time t.
func (m *Manager) eventInstantLocked(t time.Duration) time.Duration {
	if t < m.epoch {
		t = m.epoch
	}
	k := (t - m.epoch) / m.opts.Tick
	return m.epoch + (k+1)*m.opts.Tick
}

// deadlineInstantLocked reports the first instant the loop may act on a
// known deadline d (a bubble start or end): the first grid instant at or
// after d.
func (m *Manager) deadlineInstantLocked(d time.Duration) time.Duration {
	if d <= m.epoch+m.opts.Tick {
		return m.epoch + m.opts.Tick
	}
	k := (d - m.epoch + m.opts.Tick - 1) / m.opts.Tick
	return m.epoch + k*m.opts.Tick
}

// --- reconcile schedule ---------------------------------------------------

// reconcile is the shared timer callback: one full Algorithm-2 pass for w at
// the current (grid-aligned) instant, then re-arm whatever deadlines remain.
func (m *Manager) reconcile(w *workerMeta) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.running || !w.alive {
		return
	}
	now := m.eng.Now()
	m.reconcileWorkerLocked(w, now)
	m.armWorkerLocked(w, now)
}

// wakeLocked notes a control-plane event for w: a reconcile is scheduled at
// the first grid instant that may act on it, and the deadline timers are
// refreshed. No-op while the manager is stopped (Start arms the initial
// pass).
func (m *Manager) wakeLocked(w *workerMeta) {
	if !m.running || !w.alive {
		return
	}
	now := m.eng.Now()
	m.kickLocked(w, m.eventInstantLocked(now))
	m.armWorkerLocked(w, now)
}

// kickLocked arms w's kick timer for instant at, unless an earlier (or
// equal) kick is already pending.
func (m *Manager) kickLocked(w *workerMeta, at time.Duration) {
	if t := w.kickTimer; t != nil && t.Pending() && w.kickAt <= at {
		return
	}
	w.kickTimer = simtime.Reschedule(m.eng, w.kickTimer, at-m.eng.Now(), w.kickName, w.reconcileFn)
	w.kickAt = at
}

// armWorkerLocked refreshes w's two deadline timers from its state: the
// current bubble's end (the pause point) and the front pending bubble's
// adoption instant. Both reuse their handles; re-arming an unchanged
// deadline is a no-op.
func (m *Manager) armWorkerLocked(w *workerMeta, now time.Duration) {
	if !m.running || !w.alive {
		return
	}
	if w.hasBubble {
		w.endTimer = m.armLocked(w.endTimer, &w.endAt, m.deadlineInstantLocked(w.bubble.End()), w.endName, w.reconcileFn)
	}
	if w.pending.Len() > 0 {
		front := w.pending.At(0)
		at := front.visibleAt
		if d := m.deadlineInstantLocked(front.b.Start); d > at {
			at = d
		}
		// An already-adoptable front (at <= now) is blocked only by the
		// current bubble; the end-timer pass adopts it, so no timer is due.
		if at > now {
			w.startTimer = m.armLocked(w.startTimer, &w.startAt, at, w.startName, w.reconcileFn)
		}
	}
	// An idle worker with queued tasks promotes the next one on the next
	// grid instant (Algorithm 2's queue pop).
	if w.current == nil && len(w.queue) > 0 {
		m.kickLocked(w, m.eventInstantLocked(now))
	}
}

// armLocked re-arms t (which the manager exclusively owns) for instant at,
// reusing the handle; a pending timer already set to at is left alone.
func (m *Manager) armLocked(t *simtime.Timer, armedAt *time.Duration, at time.Duration, name string, fn func()) *simtime.Timer {
	if t != nil && t.Pending() && *armedAt == at {
		return t
	}
	*armedAt = at
	return simtime.Reschedule(m.eng, t, at-m.eng.Now(), name, fn)
}

// --- Algorithm 2 ----------------------------------------------------------

// reconcileWorkerLocked is the per-worker body of Algorithm 2.
func (m *Manager) reconcileWorkerLocked(w *workerMeta, now time.Duration) {
	if !w.alive {
		return
	}
	// Lines 4–8: current bubble ended → pause the current task.
	if w.hasBubble && now >= w.bubble.End() {
		if w.current != nil && w.current.serving {
			m.accountServedLocked(w.current, &w.bubble)
			m.pauseLocked(w, w.current)
		}
		w.hasBubble = false
	}
	// Lines 9–10: adopt a newly begun bubble.
	if !w.hasBubble {
		m.adoptBubbleLocked(w, now)
	}
	// Lines 11–15: pick the next task if idle.
	if w.current == nil {
		if len(w.queue) == 0 {
			return
		}
		w.current = w.queue[0]
		w.queue = removeAt(w.queue, 0)
	}
	cur := w.current
	if cur.exited {
		w.current = nil
		return
	}
	// Lines 16–17: initialize a created task.
	if cur.state == sidetask.StateCreated && !cur.initSent {
		m.initLocked(w, cur)
		return
	}
	// Lines 18–19: start a paused task into the current bubble.
	if w.hasBubble && cur.state == sidetask.StatePaused && cur.startedSeq != w.bubbleSeq {
		// SLO admission guard (serving workload): skip the start when the
		// bubble's remaining time falls short of Guard × the task's pause
		// fit — the task would overrun the predicted batch arrival. The
		// bubble stays adopted; a later reconcile round (or the next
		// bubble) retries. Guard 0 never defers: remaining is strictly
		// positive here (the bubble-end rule above cleared expired ones).
		if m.opts.SLO != nil && m.opts.SLO.Guard > 0 {
			fit := cur.spec.Profile.FitTime()
			if float64(w.bubble.End()-now) < m.opts.SLO.Guard*float64(fit) {
				m.stats.SLODeferred++
				return
			}
		}
		m.startLocked(w, cur)
	}
}

// adoptBubbleLocked makes the front pending bubble w's current one if it has
// begun, is visible, and has not ended; expired fronts are dropped. pending
// is Start-ordered, so an ineligible front means nothing behind it is
// eligible either.
func (m *Manager) adoptBubbleLocked(w *workerMeta, now time.Duration) {
	for w.pending.Len() > 0 {
		if front := w.pending.At(0); now < front.visibleAt || front.b.Start > now {
			return // front not yet adoptable
		}
		pb := w.pending.Pop()
		if now >= pb.b.End() {
			m.stats.BubblesExpired++
			continue
		}
		m.adoptions++
		w.bubble, w.hasBubble, w.bubbleSeq = pb.b, true, m.adoptions
		return
	}
}

// removeAt deletes s[i] by compacting in place and zeroing the vacated tail
// slot. It serves a worker's task queue, which loses entries at any index
// (a detach) as well as at the head (a promotion, once per task lifetime);
// the queue is a handful of records at most — one on every benchmark
// workload — so the copy is free, whereas re-slicing (s[1:]) would shed a
// slot of capacity per pop and keep the consumed record reachable.
func removeAt[T any](s []T, i int) []T {
	n := i + copy(s[i:], s[i+1:])
	var zero T
	s[n] = zero
	return s[:n]
}

// workerCall is the context of one in-flight per-cycle call (Worker.Init,
// Worker.Start, Worker.Pause): what its completion needs to know, plus done,
// the completion itself, bound once when the context is first built. Contexts
// are manager-private — nothing in them crosses the link — and the peer
// completes every call exactly once, so a context returns to its pool
// whenever done has run, reply or failure alike.
type workerCall struct {
	kind callKind
	w    *workerMeta
	rec  *taskRecord
	// inc is rec's incarnation when the call was issued; a completion for an
	// older incarnation is discarded.
	inc int
	// seq is the adoption number of the bubble a start was issued for.
	seq  uint64
	done func(result any, err error)
}

type callKind uint8

const (
	callInit callKind = iota
	callStart
	callPause
)

// goLocked issues one per-cycle call to rec's worker on a pooled context.
func (m *Manager) goLocked(kind callKind, method string, params any, w *workerMeta, rec *taskRecord) {
	pc := m.callPool.Get()
	c := &pc.V
	if c.done == nil {
		c.done = func(result any, err error) { m.complete(pc, result, err) }
	}
	c.kind, c.w, c.rec, c.inc, c.seq = kind, w, rec, rec.incarnation, w.bubbleSeq
	m.stats.RPCs++
	w.peer.Go(method, params, m.opts.RPCTimeout, c.done)
}

// complete is the done callback of every per-cycle call.
func (m *Manager) complete(pc *freerpc.Pooled[workerCall], result any, err error) {
	c := &pc.V
	m.mu.Lock()
	defer m.mu.Unlock()
	switch c.kind {
	case callInit:
		m.initDoneLocked(c, err)
	case callStart:
		m.startDoneLocked(c, result, err)
	case callPause:
		m.pauseDoneLocked(c, result, err)
	}
	c.w, c.rec = nil, nil
	pc.Recycle()
}

func (m *Manager) initLocked(w *workerMeta, rec *taskRecord) {
	rec.initSent = true
	m.goLocked(callInit, "Worker.Init", rec.refArgs, w, rec)
}

// initDoneLocked: completion (the PAUSED transition) is pushed back
// asynchronously via Manager.TaskState; the reply only matters when the call
// itself fails, in which case initSent is unpinned so a later pass retries —
// a wedged init would otherwise starve the worker's whole queue.
func (m *Manager) initDoneLocked(c *workerCall, err error) {
	rec := c.rec
	if err == nil || rec.incarnation != c.inc {
		return
	}
	if !rec.exited && rec.state == sidetask.StateCreated {
		rec.initSent = false
	}
	m.wakeLocked(c.w)
}

func (m *Manager) applyStatusLocked(rec *taskRecord, st taskStatus) {
	if st.Exited {
		m.taskExitedLocked(rec, st)
		return
	}
	rec.state = sidetask.State(st.State)
}

// startLocked starts rec into w's current bubble.
func (m *Manager) startLocked(w *workerMeta, rec *taskRecord) {
	rec.startedSeq = w.bubbleSeq
	args := m.startPool.Get()
	args.V = startArgs{Name: rec.spec.Name, BubbleEndNs: int64(w.bubble.End())}
	m.goLocked(callStart, "Worker.Start", args, w, rec)
}

func (m *Manager) startDoneLocked(c *workerCall, result any, err error) {
	rec := c.rec
	if rec.incarnation != c.inc || rec.exited || rec.parked {
		return
	}
	var st taskStatus
	if err == nil && result != nil {
		st, err = freerpc.DecodeResult[taskStatus](result)
	}
	if err != nil || result == nil {
		// The start never reached the worker (or timed out, or its reply was
		// undecodable): unpin the dedupe record so the bubble can be retried
		// on the next pass — unless a later bubble's start has replaced it.
		if rec.startedSeq == c.seq {
			rec.startedSeq = 0
		}
		m.wakeLocked(c.w)
		return
	}
	if st.Started {
		rec.state = sidetask.StateRunning
		rec.serving = true
		rec.servedFrom = m.eng.Now()
		m.stats.BubblesServed++
		return
	}
	m.applyStatusLocked(rec, st)
	m.wakeLocked(c.w)
}

func (m *Manager) pauseLocked(w *workerMeta, rec *taskRecord) {
	rec.serving = false
	rec.state = sidetask.StatePaused // optimistic; corrected on failure
	m.goLocked(callPause, "Worker.Pause", rec.refArgs, w, rec)
}

func (m *Manager) pauseDoneLocked(c *workerCall, result any, err error) {
	rec := c.rec
	if rec.incarnation != c.inc || rec.exited || rec.parked {
		return
	}
	if err != nil || result == nil {
		// The pause never reached the worker (or timed out): the task is, to
		// the manager's best knowledge, still running — correct the
		// optimistic record.
		if rec.state == sidetask.StatePaused {
			rec.state = sidetask.StateRunning
		}
		m.wakeLocked(c.w)
		return
	}
	st, derr := freerpc.DecodeResult[taskStatus](result)
	if derr != nil {
		// An undecodable reply still proves the worker processed the pause,
		// so the optimistic PAUSED stands — only the exit flag it may have
		// carried is lost (the TaskExited push covers that independently).
		return
	}
	if st.Exited {
		m.applyStatusLocked(rec, st)
		m.wakeLocked(c.w)
		return
	}
	// An acknowledged pause is a consistent cut of the task's progress:
	// checkpoint the reported counters. A later restart resumes from here;
	// only work accrued past this point is lost.
	rec.ckpt = TaskCkpt{
		Steps:        st.Steps,
		KernelTimeNs: st.KernelTimeNs,
		HostTimeNs:   st.HostTimeNs,
		InsuffNs:     st.InsuffNs,
	}
	rec.hasCkpt = true
	rec.servedSinceCkpt = 0
}

func (m *Manager) accountServedLocked(rec *taskRecord, b *bubble.Bubble) {
	if !rec.serving {
		return
	}
	served := b.End() - rec.servedFrom
	if served > b.Duration {
		served = b.Duration
	}
	if served > 0 {
		m.stats.BubbleTimeServed += served
		rec.servedSinceCkpt += served
	}
}

// onTaskExited handles the worker's exit notification. Reports from dead
// incarnations (a crashed worker's exit push racing the re-placement) are
// discarded.
func (m *Manager) onTaskExited(st taskStatus) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.tasks[st.Name]
	if !ok || rec.exited || rec.parked || st.Incarnation != rec.incarnation {
		return
	}
	w := m.workers[rec.workerIdx]
	if m.opts.Lease > 0 {
		w.lastSeen = m.eng.Now()
	}
	m.taskExitedLocked(rec, st)
	m.wakeLocked(w)
}

// taskExitedLocked applies a task exit: injected infrastructure faults
// enter the recovery cycle (the task's own work is intact — the platform
// failed it), and so does a pause-overrun grace kill on a worker whose
// bubble supply is contracting (a stale admission, not a task bug — the
// drift-aware classification); every other exit is the task's outcome and
// stays terminal.
func (m *Manager) taskExitedLocked(rec *taskRecord, st taskStatus) {
	w := m.workers[rec.workerIdx]
	m.detachLocked(rec)
	if m.running {
		if m.opts.Lease > 0 && isInfraFault(st.ExitErr) {
			m.planRecoveryLocked(rec, st.ExitErr)
			return
		}
		if m.opts.Replan != nil && isGraceKill(st.ExitErr) &&
			w.est != nil && w.est.ShrinkSuspected() {
			m.planRecoveryLocked(rec, st.ExitErr+" (bubble shrank: replan demotion)")
			return
		}
	}
	rec.exited = true
	rec.exitErr = st.ExitErr
	rec.state = sidetask.StateStopped
}

// StopAll asks every worker to stop its tasks (end of run), in submission
// order — the Stop RPCs take call ids and engine sequence numbers. A failed
// Stop RPC retires the record instead of leaving it in limbo — symmetric to
// the Init/Pause failure paths.
func (m *Manager) StopAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range m.taskOrder {
		if rec.exited {
			continue
		}
		if rec.retryTimer != nil {
			rec.retryTimer.Cancel()
		}
		if rec.parked || !m.placedLocked(rec) {
			continue
		}
		rec := rec
		inc := rec.incarnation
		w := m.workers[rec.workerIdx]
		m.stats.RPCs++
		w.peer.Go("Worker.Stop", rec.refArgs, m.opts.RPCTimeout, func(result any, err error) {
			if err == nil {
				return
			}
			m.mu.Lock()
			defer m.mu.Unlock()
			if rec.incarnation != inc || rec.exited {
				return
			}
			rec.exited = true
			rec.exitErr = "stop failed: " + err.Error()
			rec.state = sidetask.StateStopped
		})
	}
}
