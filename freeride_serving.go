package freeride

import (
	"fmt"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/core"
	"freeride/internal/model"
	"freeride/internal/serve"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// newServingSession assembles the inference-serving workload: the seeded
// arrival trace, one device per stage, the forward-only batch-cycle server,
// and — for the FreeRide methods — the same manager/worker control plane
// the training sessions use, fed by the request-driven bubble reporter.
// cfg arrives normalized (NewSession branches here after normalize).
func newServingSession(cfg Config) (*Session, error) {
	sc := cfg.Serving
	arrivals, err := serve.GenerateArrivals(serve.ArrivalConfig{
		Kind:       sc.Trace,
		Rate:       sc.Rate,
		Burstiness: sc.Burstiness,
		Requests:   sc.Requests,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	tax := cfg.ResidencyTax
	if cfg.Method == MethodNone {
		tax = 0
	}
	devices := make([]*simgpu.Device, cfg.Stages)
	for i := range devices {
		devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{
			Name:         fmt.Sprintf("gpu%d", i),
			MemBytes:     model.ServerI.GPUMemBytes,
			Policy:       simgpu.PolicyMPS,
			ResidencyTax: tax,
			NoTraces:     !cfg.RecordOps,
		})
	}
	srv, err := serve.New(eng, procs, devices, serve.Config{
		Model:        cfg.LLM,
		Stages:       cfg.Stages,
		MicroBatches: cfg.MicroBatches,
		BatchSize:    sc.BatchSize,
		SLO:          sc.SLO,
		Arrivals:     arrivals,
	})
	if err != nil {
		return nil, err
	}
	s := &Session{
		cfg:      cfg,
		Eng:      eng,
		Procs:    procs,
		Devices:  devices,
		Server:   srv,
		memSlack: core.DefaultMemSlack,
	}
	if cfg.Method == MethodIterative || cfg.Method == MethodImperative {
		if err := s.assembleControlPlane(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// attachServeReporter wires the request-driven bubble reporter between the
// server's batch hooks and the manager's AddBubble link: per-batch fill and
// drain bubbles from the serving closed forms, plus the causally predicted
// inter-batch gap (see bubble.ServeReporter).
func (s *Session) attachServeReporter(sink func(bubble.Bubble)) {
	m := s.cfg.LLM
	stages := s.cfg.Stages
	fill := make([]time.Duration, stages)
	drain := make([]time.Duration, stages)
	memAvail := make([]int64, stages)
	for i := 0; i < stages; i++ {
		fill[i] = m.ServeFillTime(i)
		drain[i] = m.ServeDrainTime(i, stages)
		memAvail[i] = s.stageMemAvailable(i)
	}
	rep := bubble.NewServeReporter(fill, drain,
		m.ServeBatchSpan(stages, s.cfg.MicroBatches), memAvail, s.cfg.SafetyMargin)
	rep.SetSink(sink)
	s.Server.OnBatchStart(func(_ int, ts time.Duration) { rep.BatchStart(ts) })
	s.Server.OnBatchEnd(func(_ int, ts time.Duration) { rep.BatchEnd(ts) })
}

// runServing drains the serving simulation until the last batch completes,
// freezing side-task counters at that instant (the serving measurement
// window) before the manager teardown — the serving analogue of Run.
func (s *Session) runServing() (*Result, error) {
	if err := s.Server.Start(); err != nil {
		return nil, err
	}
	if s.Manager != nil {
		s.Manager.Start()
	}
	const maxEvents = 500_000_000
	const budgetCheckEvery = 4096
	done := s.Server.Done()
	for n := uint64(0); !done.IsSet(); n++ {
		if !s.Eng.Step() {
			return nil, fmt.Errorf("freeride: serving simulation stalled at t=%v", s.Eng.Now())
		}
		if n%budgetCheckEvery == 0 && s.Eng.Dispatched() > maxEvents {
			return nil, fmt.Errorf("freeride: serving event budget exceeded at t=%v", s.Eng.Now())
		}
	}
	if err := s.Server.Err(); err != nil {
		return nil, err
	}
	// The drain loop stops at the exact event that set Done, so this
	// snapshot lands at the last batch's completion instant.
	s.snapshotCounters()
	if s.Manager != nil {
		s.Manager.Stop()
		s.Manager.StopAll()
		s.Eng.RunFor(2 * s.cfg.Grace)
	}
	res := s.collectResult(s.Server.TotalTime())
	res.ServingStats = s.Server.Stats()
	return res, nil
}
