package serve

import (
	"fmt"
	"sort"
	"time"

	"freeride/internal/model"
	"freeride/internal/pipeline"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// Config describes one pipeline-parallel serving run.
type Config struct {
	Model        model.LLM
	Stages       int
	MicroBatches int
	// BatchSize is the number of requests per pipeline batch. A batch
	// dispatches once its last request has arrived and the previous batch
	// has fully drained; the final batch may be partial but still runs the
	// full micro-batch schedule (padding).
	BatchSize int
	// SLO is the per-request latency objective scored by Stats.
	SLO time.Duration
	// Arrivals are the request arrival offsets (see GenerateArrivals).
	Arrivals []time.Duration
}

func (c *Config) normalize() error {
	if c.Stages < 1 {
		return fmt.Errorf("serve: stages %d < 1", c.Stages)
	}
	if c.MicroBatches < 1 {
		return fmt.Errorf("serve: micro-batches %d < 1", c.MicroBatches)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("serve: batch size %d < 1", c.BatchSize)
	}
	if len(c.Arrivals) == 0 {
		return fmt.Errorf("serve: empty arrival trace")
	}
	if c.SLO <= 0 {
		return fmt.Errorf("serve: non-positive SLO %v", c.SLO)
	}
	for i := 1; i < len(c.Arrivals); i++ {
		if c.Arrivals[i] < c.Arrivals[i-1] {
			return fmt.Errorf("serve: arrivals not sorted at index %d", i)
		}
	}
	return nil
}

// Stats is the per-request latency distribution and SLO accounting of a
// completed run. All fields are plain values, so results stay comparable
// with reflect.DeepEqual (the determinism and oracle tests rely on it).
type Stats struct {
	Requests int
	Batches  int
	P50      time.Duration
	P99      time.Duration
	Max      time.Duration
	Mean     time.Duration
	// Violations counts requests whose latency exceeded SLO.
	Violations int
	SLO        time.Duration
	// TotalTime is the serving makespan: first batch dispatch to last
	// batch completion.
	TotalTime time.Duration
}

// Server is the forward-only batch cycle over one device per stage:
// pipeline.Driver with cycle = request batch, the same driver the trainer
// runs per epoch. It keeps only what is serving's — the arrival gate (when
// the next batch may be released) and the latency accounting.
type Server struct {
	pipeline.Driver
	cfg Config

	latencies []time.Duration
}

// New builds a server over one device per stage.
func New(eng *simtime.Virtual, procs *simproc.Runtime, devices []*simgpu.Device, cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	plan, err := pipeline.BuildServingPlan(cfg.Stages, cfg.MicroBatches)
	if err != nil {
		return nil, err
	}
	// readyAt[b] is when batch b's last request has arrived — the earliest
	// the batch may dispatch (the last batch may be partial).
	readyAt := make([]time.Duration, (len(cfg.Arrivals)+cfg.BatchSize-1)/cfg.BatchSize)
	for b := range readyAt {
		readyAt[b] = cfg.Arrivals[min((b+1)*cfg.BatchSize, len(cfg.Arrivals))-1]
	}
	mem := cfg.Model.ServeStageMemUsed(cfg.MicroBatches)
	s := &Server{cfg: cfg, latencies: make([]time.Duration, 0, len(cfg.Arrivals))}
	w := pipeline.Workload{
		Plan: plan,
		RunnerConfig: pipeline.RunnerConfig{
			Cycles:   len(readyAt),
			Comm:     cfg.Model.CommLatency,
			ProcName: "serve-s",
			Label:    "infer",
		},
		Name:         "serve",
		ClientPrefix: "serve-s",
		StageMem:     func(int) int64 { return mem },
		ReadyAt:      func(b int) time.Duration { return readyAt[b] },
		Close:        s.scoreBatch,
	}
	w.Durations[pipeline.OpForward] = cfg.Model.FPPerMB
	if err := s.Init(eng, procs.As(simtime.OwnerServe), devices, w); err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the serving configuration.
func (s *Server) Config() Config { return s.cfg }

// BatchTimes returns per-batch (dispatch, drain) pairs recorded so far.
func (s *Server) BatchTimes() (starts, ends []time.Duration) { return s.CycleTimes() }

// Stats computes the latency distribution of the completed run.
func (s *Server) Stats() Stats {
	lat := append([]time.Duration(nil), s.latencies...)
	st := Stats{
		Requests: len(lat),
		// A batch's requests are scored together as it drains.
		Batches: (len(lat) + s.cfg.BatchSize - 1) / s.cfg.BatchSize,
		SLO:     s.cfg.SLO,
	}
	if len(lat) == 0 {
		return st
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, l := range lat {
		sum += l
		if l > s.cfg.SLO {
			st.Violations++
		}
	}
	st.P50 = quantile(lat, 0.50)
	st.P99 = quantile(lat, 0.99)
	st.Max = lat[len(lat)-1]
	st.Mean = sum / time.Duration(len(lat))
	st.TotalTime = s.TotalTime()
	return st
}

// quantile picks the nearest-rank order statistic from a sorted slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// scoreBatch closes batch b as it drains: its requests' latencies are the
// drain instant minus their arrivals.
func (s *Server) scoreBatch(b int, now time.Duration) {
	first := b * s.cfg.BatchSize
	last := min(first+s.cfg.BatchSize, len(s.cfg.Arrivals))
	for _, at := range s.cfg.Arrivals[first:last] {
		s.latencies = append(s.latencies, now-at)
	}
}
