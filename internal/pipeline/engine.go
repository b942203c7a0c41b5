package pipeline

import (
	"fmt"
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

// OpSpan records one executed op for the Figure-1 timeline.
type OpSpan struct {
	Op    Op
	Start time.Duration
	End   time.Duration
}

// Trainer is one pipeline-parallel training run across a set of GPUs: the
// Driver with cycle = epoch. It keeps only what is training's — the schedule
// plan each epoch runs (re-generated under MBSchedule) and the op timeline.
type Trainer struct {
	Driver
	cfg  Config
	plan *Plan // the generated schedule (base micro-batch count)
	// planCache memoizes re-generated plans per micro-batch count (engine
	// context only; MBSchedule only).
	planCache map[int]*Plan
	opLog     [][]OpSpan // per stage
}

// New builds a trainer over one device per stage.
func New(eng *simtime.Virtual, procs *simproc.Runtime, devices []*simgpu.Device, cfg Config) (*Trainer, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	t := &Trainer{cfg: cfg, opLog: make([][]OpSpan, cfg.Stages)}
	var err error
	if t.plan, err = t.planFor(cfg.MicroBatches); err != nil {
		return nil, err
	}
	m := cfg.Model
	chunks := time.Duration(cfg.VirtualPerStage)
	bpDur := m.BPPerMB / chunks
	w := Workload{
		RunnerConfig: RunnerConfig{
			Stages:          cfg.Stages,
			VirtualPerStage: cfg.VirtualPerStage,
			Cycles:          cfg.Epochs,
			MBAlloc:         cfg.MBCap,
			Comm:            m.CommLatency,
			ProcName:        "pipe-v",
		},
		Name:         "pipeline",
		ClientPrefix: "train-s",
		// Activation memory is provisioned for the largest micro-batch count
		// the run can reach (MBCap == MicroBatches without the resize hook).
		StageMem: func(s int) int64 {
			c := &t.cfg
			return c.Model.StageMemUsedSched(c.Schedule, s, c.Stages, c.MBCap, c.VirtualPerStage)
		},
		Plan: t.epochPlan,
	}
	w.Durations[OpForward] = m.FPPerMB / chunks
	w.Durations[OpBackward] = bpDur
	w.Durations[OpBackwardInput] = bpDur / 2 // zero-bubble activation-gradient half
	w.Durations[OpBackwardWeight] = bpDur - bpDur/2
	w.Durations[OpOptimize] = m.OptStep / chunks
	if cfg.RecordOps {
		w.Record = t.recordOp
	}
	if err := t.Init(eng, procs, devices, w); err != nil {
		return nil, err
	}
	return t, nil
}

// Config returns the training configuration.
func (t *Trainer) Config() Config { return t.cfg }

// OpLog returns the recorded op timeline for a stage (RecordOps only).
func (t *Trainer) OpLog(stage int) []OpSpan {
	return append([]OpSpan(nil), t.opLog[stage]...)
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

// epochPlan is the plan an epoch starting now runs: the base schedule, or the
// one re-generated for the micro-batch count MBSchedule resizes the epoch to.
func (t *Trainer) epochPlan(epoch int, now time.Duration) (*Plan, error) {
	if t.cfg.MBSchedule == nil {
		return t.plan, nil
	}
	mb := t.cfg.MBSchedule(epoch, now)
	if mb < 1 {
		mb = t.cfg.MicroBatches
	}
	return t.planFor(min(mb, t.cfg.MBCap))
}

func (t *Trainer) recordOp(stage, _ int, span OpSpan) {
	t.opLog[stage] = append(t.opLog[stage], span)
}
