package pipeline

import (
	"fmt"
	"sync"
	"time"

	"freeride/internal/model"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// Config describes one pipeline training job.
type Config struct {
	Model        model.LLM
	Stages       int
	MicroBatches int
	Epochs       int
	Schedule     ScheduleKind
	// VirtualPerStage > 1 enables interleaved scheduling (Megatron-style
	// virtual pipeline stages, the bubble-*reduction* approach of the
	// paper's related work [29,34]): the model is split into
	// Stages×VirtualPerStage chunks, chunk v running on device v mod
	// Stages. Chunks sharing a device contend for its (serial) kernel
	// stream, producing a greedy interleaved schedule whose Type-A bubbles
	// shrink by roughly 1/V. Default 1 (plain 1F1B/GPipe); defaults to 2
	// when Schedule is ScheduleInterleaved.
	VirtualPerStage int
	// RecordOps enables the per-stage op timeline (Figure 1a).
	RecordOps bool
	// MBSchedule, when set, re-evaluates the epoch's micro-batch count at
	// each epoch start (the drift→schedule regeneration hook: elastic
	// micro-batch resizing recomputes the actual op lists, not just the
	// reported trace). Values are clamped to [1, max(MicroBatches, MBCap)].
	// Nil keeps the static MicroBatches — the byte-identical default path.
	MBSchedule func(epoch int, start time.Duration) int
	// MBCap bounds MBSchedule's values; the dependency scoreboard and
	// activation memory are provisioned for max(MicroBatches, MBCap) up front.
	MBCap int
}

func (c *Config) normalize() error {
	if c.Stages < 1 {
		return fmt.Errorf("pipeline: stages %d < 1", c.Stages)
	}
	if c.MicroBatches < 1 {
		return fmt.Errorf("pipeline: micro-batches %d < 1", c.MicroBatches)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("pipeline: epochs %d < 1", c.Epochs)
	}
	if c.Schedule == 0 {
		c.Schedule = Schedule1F1B
	}
	if c.VirtualPerStage <= 0 {
		c.VirtualPerStage = 1
	}
	if c.Schedule == ScheduleInterleaved && c.VirtualPerStage < 2 {
		c.VirtualPerStage = 2
	}
	if c.Schedule == ScheduleZeroBubble && c.VirtualPerStage > 1 {
		return fmt.Errorf("pipeline: zero-bubble schedule does not compose with virtual stages (V=%d)", c.VirtualPerStage)
	}
	if c.MBCap < c.MicroBatches {
		c.MBCap = c.MicroBatches
	}
	return nil
}

// mbAlloc is the micro-batch count the dependency scoreboard and activation
// memory are provisioned for.
func (c Config) mbAlloc() int { return c.MBCap }

// numVirtual is the total virtual stage count.
func (c Config) numVirtual() int { return c.Stages * c.VirtualPerStage }

// OpSpan records one executed op for the Figure-1 timeline.
type OpSpan struct {
	Op    Op
	Start time.Duration
	End   time.Duration
}

// Trainer is one pipeline-parallel training run across a set of GPUs: the
// epoch-cycle driver of the plan Runner. It owns the per-stage clients, the
// epoch hooks and timeline, and (under MBSchedule) the plan each epoch runs;
// the Runner owns op execution and every cross-stage dependency.
type Trainer struct {
	cfg     Config
	eng     simtime.Engine
	procs   *simproc.Runtime
	devices []*simgpu.Device

	// Immutable after Start:
	clients []*simgpu.Client
	plan    *Plan // the generated schedule (base micro-batch count)
	run     *Runner
	// planCache memoizes re-generated plans per micro-batch count (engine
	// context only; MBSchedule only).
	planCache map[int]*Plan

	mu           sync.Mutex
	epochStart   []time.Duration
	epochEnd     []time.Duration
	opLog        [][]OpSpan // per stage
	onEpochStart []func(epoch int, t time.Duration)
	onEpochEnd   []func(epoch int, t time.Duration)
	started      bool
	failed       error

	done *simproc.Latch
}

// New builds a trainer over one device per stage.
func New(eng simtime.Engine, procs *simproc.Runtime, devices []*simgpu.Device, cfg Config) (*Trainer, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(devices) != cfg.Stages {
		return nil, fmt.Errorf("pipeline: %d devices for %d stages", len(devices), cfg.Stages)
	}
	t := &Trainer{
		cfg:     cfg,
		eng:     eng,
		procs:   procs,
		devices: devices,
		opLog:   make([][]OpSpan, cfg.Stages),
		done:    simproc.NewLatch(eng),
		// Sized up front: a steady-state epoch appends without allocating.
		epochStart: make([]time.Duration, 0, cfg.Epochs),
		epochEnd:   make([]time.Duration, 0, cfg.Epochs),
	}
	return t, nil
}

// OnEpochStart registers a hook invoked (in engine context) when each epoch
// begins. This is one of the three instrumentation points of paper §4.6.
func (t *Trainer) OnEpochStart(fn func(epoch int, ts time.Duration)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onEpochStart = append(t.onEpochStart, fn)
}

// OnEpochEnd registers a hook invoked when each epoch's barrier completes.
func (t *Trainer) OnEpochEnd(fn func(epoch int, ts time.Duration)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onEpochEnd = append(t.onEpochEnd, fn)
}

// Done returns a latch set when all epochs have finished.
func (t *Trainer) Done() *simproc.Latch { return t.done }

// Client returns the training GPU client of a stage (valid after Start).
func (t *Trainer) Client(stage int) *simgpu.Client { return t.clients[stage] }

// Device returns the GPU device of a stage.
func (t *Trainer) Device(stage int) *simgpu.Device { return t.devices[stage] }

// Config returns the training configuration.
func (t *Trainer) Config() Config { return t.cfg }

// EpochTimes returns per-epoch (start, end) pairs recorded so far.
func (t *Trainer) EpochTimes() (starts, ends []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	starts = append([]time.Duration(nil), t.epochStart...)
	ends = append([]time.Duration(nil), t.epochEnd...)
	return starts, ends
}

// OpLog returns the recorded op timeline for a stage (RecordOps only).
func (t *Trainer) OpLog(stage int) []OpSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]OpSpan(nil), t.opLog[stage]...)
}

// Err reports a training failure (e.g. OOM during setup).
func (t *Trainer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed
}

// TotalTime reports the makespan from first epoch start to last epoch end.
func (t *Trainer) TotalTime() time.Duration {
	starts, ends := t.EpochTimes()
	if len(starts) == 0 || len(ends) == 0 {
		return 0
	}
	return ends[len(ends)-1] - starts[0]
}

// Start allocates training memory on every stage and spawns the stage
// processes. It returns immediately; completion is observable via Done. On
// the wall engine it must be called from an engine callback (see Runner).
func (t *Trainer) Start() error {
	t.mu.Lock()
	if t.started {
		t.mu.Unlock()
		return fmt.Errorf("pipeline: already started")
	}
	t.started = true
	t.mu.Unlock()

	plan, err := t.planFor(t.cfg.MicroBatches)
	if err != nil {
		return err
	}
	// Activation memory is provisioned for the largest micro-batch count
	// the run can reach (mbAlloc == MicroBatches without the resize hook).
	clients, err := NewStageClients(t.devices, "train-s", func(s int) int64 {
		return t.cfg.Model.StageMemUsedSched(t.cfg.Schedule, s, t.cfg.Stages,
			t.cfg.mbAlloc(), t.cfg.VirtualPerStage)
	})
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	t.clients = clients
	t.plan = plan

	m := t.cfg.Model
	chunks := time.Duration(t.cfg.VirtualPerStage)
	bpDur := m.BPPerMB / chunks
	rc := RunnerConfig{
		Stages:          t.cfg.Stages,
		VirtualPerStage: t.cfg.VirtualPerStage,
		Cycles:          t.cfg.Epochs,
		MBAlloc:         t.cfg.mbAlloc(),
		Comm:            m.CommLatency,
		ProcName:        "pipe-v",
		CycleDone:       t.endEpoch,
		Failed:          t.opFailed,
	}
	rc.Durations[OpForward] = m.FPPerMB / chunks
	rc.Durations[OpBackward] = bpDur
	rc.Durations[OpBackwardInput] = bpDur / 2 // zero-bubble activation-gradient half
	rc.Durations[OpBackwardWeight] = bpDur - bpDur/2
	rc.Durations[OpOptimize] = m.OptStep / chunks
	if t.cfg.RecordOps {
		rc.Record = t.recordOp
	}
	t.run = NewRunner(t.procs, clients, rc)
	t.beginEpoch(0)
	return nil
}

// planFor builds (and memoizes) the schedule plan for a micro-batch count.
// Engine context only.
func (t *Trainer) planFor(mbs int) (*Plan, error) {
	if p, ok := t.planCache[mbs]; ok {
		return p, nil
	}
	p, err := BuildPlan(t.cfg.Schedule, t.cfg.Stages, mbs, t.cfg.VirtualPerStage)
	if err != nil {
		return nil, err
	}
	if t.planCache == nil {
		t.planCache = make(map[int]*Plan)
	}
	t.planCache[mbs] = p
	return p, nil
}

// beginEpoch records the epoch start, fires the instrumentation hooks and
// releases the stages on the epoch's plan (re-generated when MBSchedule
// resizes the micro-batch count). Runs in engine-callback or Start context.
func (t *Trainer) beginEpoch(epoch int) {
	now := t.eng.Now()
	plan := t.plan
	if t.cfg.MBSchedule != nil {
		mb := t.cfg.MBSchedule(epoch, now)
		if mb < 1 {
			mb = t.cfg.MicroBatches
		}
		if mb > t.cfg.mbAlloc() {
			mb = t.cfg.mbAlloc()
		}
		var err error
		if plan, err = t.planFor(mb); err != nil {
			t.fail(err)
			return
		}
	}
	t.mu.Lock()
	t.epochStart = append(t.epochStart, now)
	hooks := t.onEpochStart // append-only: the prefix is stable outside the lock
	t.mu.Unlock()

	for _, h := range hooks {
		h(epoch, now)
	}
	t.run.Release(plan)
}

// endEpoch is the runner's barrier callback: the last stage has finished the
// epoch, so close it and open the next (or finish training).
func (t *Trainer) endEpoch(epoch int) {
	now := t.eng.Now()
	t.mu.Lock()
	t.epochEnd = append(t.epochEnd, now)
	hooks := t.onEpochEnd
	t.mu.Unlock()

	for _, h := range hooks {
		h(epoch, now)
	}
	if epoch+1 >= t.cfg.Epochs {
		t.done.Set()
		return
	}
	t.beginEpoch(epoch + 1)
}

// fail records the first training failure.
func (t *Trainer) fail(err error) {
	t.mu.Lock()
	if t.failed == nil {
		t.failed = err
	}
	t.mu.Unlock()
}

func (t *Trainer) opFailed(stage int, op Op, err error) {
	t.fail(fmt.Errorf("pipeline: stage %d %v mb %d: %w", stage, op.Kind, op.MB, err))
}

func (t *Trainer) recordOp(stage int, span OpSpan) {
	t.mu.Lock()
	t.opLog[stage] = append(t.opLog[stage], span)
	t.mu.Unlock()
}
