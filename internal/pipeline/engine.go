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
	return nil
}

// OpSpan records one executed op for the Figure-1 timeline.
type OpSpan struct {
	Op    Op
	Start time.Duration
	End   time.Duration
}

// Trainer is one pipeline-parallel training run across a set of GPUs: the
// Driver with cycle = epoch, every epoch replaying the plan generated once
// from the config. It keeps only what is training's: the config and the op
// timeline.
type Trainer struct {
	Driver
	cfg   Config
	opLog [][]OpSpan // per stage
}

// New builds a trainer over one device per stage.
func New(eng *simtime.Virtual, procs *simproc.Runtime, devices []*simgpu.Device, cfg Config) (*Trainer, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	plan, err := BuildPlan(cfg.Schedule, cfg.Stages, cfg.MicroBatches, cfg.VirtualPerStage)
	if err != nil {
		return nil, err
	}
	t := &Trainer{cfg: cfg, opLog: make([][]OpSpan, cfg.Stages)}
	m := cfg.Model
	chunks := time.Duration(cfg.VirtualPerStage)
	bpDur := m.BPPerMB / chunks
	w := Workload{
		Plan: plan,
		RunnerConfig: RunnerConfig{
			Cycles:   cfg.Epochs,
			Comm:     m.CommLatency,
			ProcName: "pipe-v",
		},
		Name:         "pipeline",
		ClientPrefix: "train-s",
		StageMem: func(s int) int64 {
			return m.StageMemUsedSched(cfg.Schedule, s, cfg.Stages, cfg.MicroBatches, cfg.VirtualPerStage)
		},
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

func (t *Trainer) recordOp(stage, _ int, span OpSpan) {
	t.opLog[stage] = append(t.opLog[stage], span)
}
