package freeride

import (
	"fmt"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/pipeline"
	"freeride/internal/serve"
)

// workload is the session's one workload seam. The assembly picks training or
// serving here, and nothing after it asks which but the manager's closed forms
// (Session.stageMem): the manager is handed bubbles and never learns what
// produced them (paper §3.2 step ➎, §4.6).
type workload struct {
	// driver runs the pipeline cycle after cycle — epochs or request batches.
	driver *pipeline.Driver
	// source builds the workload's bubble source over sink and registers its
	// cycle-start / cycle-end methods on the driver.
	source func(sink func(bubble.Bubble))
	// collect adds the workload's own measurements to the Result.
	collect func(*Result)
}

// newTraining picks the closed training job: the epoch-cycle trainer and, for
// the FreeRide methods, the offline bubble profile its reporter replays.
func (s *Session) newTraining() error {
	cfg := s.cfg
	tr, err := pipeline.New(s.eng, s.Procs, s.Devices, pipeline.Config{
		Model:           cfg.LLM,
		Stages:          cfg.Stages,
		MicroBatches:    cfg.MicroBatches,
		Epochs:          cfg.Epochs,
		Schedule:        cfg.Schedule,
		VirtualPerStage: cfg.VirtualStages,
		RecordOps:       cfg.record,
	})
	if err != nil {
		return err
	}
	if cfg.Method.harvests() {
		if s.Profile, err = offlineBubbleProfile(cfg); err != nil {
			return fmt.Errorf("freeride: bubble profiling: %w", err)
		}
	}
	s.Trainer = tr
	s.w = workload{
		driver:  &tr.Driver,
		source:  s.trainingSource,
		collect: func(*Result) {},
	}
	return nil
}

// trainingSource is the instrumented trainer's reporter (paper step ➎): the
// profiled per-epoch template, replayed at every epoch start.
func (s *Session) trainingSource(sink func(bubble.Bubble)) {
	cfg := s.cfg
	rep := bubble.NewReporter(s.Profile, cfg.SafetyMargin)
	if cfg.Drift != nil {
		rep.SetDrift(bubble.NewDrifter(cfg.Drift, cfg.Stages))
	}
	if cfg.Replan != nil && s.Manager != nil {
		// Baseline each worker's drift estimator from the reporter's own
		// emission arithmetic, so a zero-drift epoch matches it to the bit.
		// (A manager in another process goes without; its detectors stay off.)
		for i, w := range s.Workers {
			total, reports := rep.StageBaseline(i)
			s.Manager.SetBubbleBaseline(w.Name(), total, reports)
		}
	}
	rep.SetSink(sink)
	s.w.driver.OnCycleStart(rep.CycleStart)
}

// newServing picks the open-loop inference-serving workload: the seeded
// arrival trace and the forward-only batch-cycle server.
func (s *Session) newServing() error {
	cfg, sc := s.cfg, s.cfg.Serving
	arrivals, err := serve.GenerateArrivals(serve.ArrivalConfig{
		Kind:       sc.Trace,
		Rate:       sc.Rate,
		Burstiness: sc.Burstiness,
		Requests:   sc.Requests,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return err
	}
	srv, err := serve.New(s.eng, s.Procs, s.Devices, serve.Config{
		Model:        cfg.LLM,
		Stages:       cfg.Stages,
		MicroBatches: cfg.MicroBatches,
		BatchSize:    sc.BatchSize,
		SLO:          sc.SLO,
		Arrivals:     arrivals,
	})
	if err != nil {
		return err
	}
	s.Server = srv
	s.w = workload{
		driver:  &srv.Driver,
		source:  s.servingSource,
		collect: func(res *Result) { res.ServingStats = srv.Stats() },
	}
	return nil
}

// servingSource is the request-driven reporter: per-batch fill and drain
// bubbles from the serving closed forms, plus the causally predicted
// inter-batch gap (see bubble.ServeReporter).
func (s *Session) servingSource(sink func(bubble.Bubble)) {
	m, stages := s.cfg.LLM, s.cfg.Stages
	fill := make([]time.Duration, stages)
	drain := make([]time.Duration, stages)
	memAvail := make([]int64, stages)
	for i := range fill {
		fill[i] = m.ServeFillTime(i)
		drain[i] = m.ServeDrainTime(i, stages)
		memAvail[i] = s.stageMem(i)
	}
	rep := bubble.NewServeReporter(fill, drain,
		m.ServeBatchSpan(stages, s.cfg.MicroBatches), memAvail, s.cfg.SafetyMargin)
	rep.SetSink(sink)
	s.w.driver.OnCycleStart(rep.CycleStart)
	s.w.driver.OnCycleEnd(rep.CycleEnd)
}
