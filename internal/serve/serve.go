package serve

import (
	"fmt"
	"sort"
	"sync"
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

// numBatches is the trace's batch count (the last batch may be partial).
func (c Config) numBatches() int {
	return (len(c.Arrivals) + c.BatchSize - 1) / c.BatchSize
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

// Server drives the forward-only batch cycle over one device per stage: the
// batch-cycle driver of pipeline.Runner, the same plan runner the trainer
// drives per epoch. The runner owns the stage machines and every
// cross-stage dependency; the server owns the arrival gate — when the next
// batch may be released — and the latency accounting.
type Server struct {
	cfg     Config
	eng     simtime.Engine
	procs   *simproc.Runtime
	devices []*simgpu.Device

	// Immutable after Start:
	clients []*simgpu.Client
	plan    *pipeline.Plan
	run     *pipeline.Runner
	// readyAt[b] is when batch b's last request has arrived — the earliest
	// the batch may dispatch.
	readyAt []time.Duration

	// The arrival gate: one reusable timer and its pre-bound callback
	// dispatch batch `next` (engine context only).
	next    int
	gate    *simtime.Timer
	beginFn func()

	mu           sync.Mutex
	batchStart   []time.Duration
	batchEnd     []time.Duration
	latencies    []time.Duration
	onBatchStart []func(batch int, ts time.Duration)
	onBatchEnd   []func(batch int, ts time.Duration)
	started      bool
	failed       error

	done *simproc.Latch
}

// New builds a server over one device per stage.
func New(eng simtime.Engine, procs *simproc.Runtime, devices []*simgpu.Device, cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(devices) != cfg.Stages {
		return nil, fmt.Errorf("serve: %d devices for %d stages", len(devices), cfg.Stages)
	}
	nb := cfg.numBatches()
	return &Server{
		cfg:     cfg,
		eng:     eng,
		procs:   procs,
		devices: devices,
		done:    simproc.NewLatch(eng),
		// Sized up front: a steady-state batch appends without allocating.
		batchStart: make([]time.Duration, 0, nb),
		batchEnd:   make([]time.Duration, 0, nb),
		latencies:  make([]time.Duration, 0, len(cfg.Arrivals)),
	}, nil
}

// OnBatchStart registers a hook invoked (in engine context) when each batch
// dispatches — the serving analogue of the trainer's epoch-start
// instrumentation point; the request-driven bubble reporter hangs off it.
func (s *Server) OnBatchStart(fn func(batch int, ts time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onBatchStart = append(s.onBatchStart, fn)
}

// OnBatchEnd registers a hook invoked when each batch fully drains.
func (s *Server) OnBatchEnd(fn func(batch int, ts time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onBatchEnd = append(s.onBatchEnd, fn)
}

// Done returns a latch set when the last batch has drained.
func (s *Server) Done() *simproc.Latch { return s.done }

// Config returns the serving configuration.
func (s *Server) Config() Config { return s.cfg }

// Client returns the serving GPU client of a stage (valid after Start).
func (s *Server) Client(stage int) *simgpu.Client { return s.clients[stage] }

// Device returns the GPU device of a stage.
func (s *Server) Device(stage int) *simgpu.Device { return s.devices[stage] }

// Err reports a serving failure (e.g. OOM during setup).
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// BatchTimes returns per-batch (dispatch, drain) pairs recorded so far.
func (s *Server) BatchTimes() (starts, ends []time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	starts = append([]time.Duration(nil), s.batchStart...)
	ends = append([]time.Duration(nil), s.batchEnd...)
	return starts, ends
}

// TotalTime reports the makespan from first dispatch to last drain.
func (s *Server) TotalTime() time.Duration {
	starts, ends := s.BatchTimes()
	if len(starts) == 0 || len(ends) == 0 {
		return 0
	}
	return ends[len(ends)-1] - starts[0]
}

// Stats computes the latency distribution of the completed run.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	lat := append([]time.Duration(nil), s.latencies...)
	batches := len(s.batchEnd)
	s.mu.Unlock()
	st := Stats{
		Requests: len(lat),
		Batches:  batches,
		SLO:      s.cfg.SLO,
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

// Start allocates serving memory on every stage, spawns the stage
// processes and schedules the first batch at its arrival-readiness
// instant. It returns immediately; completion is observable via Done.
func (s *Server) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("serve: already started")
	}
	s.started = true
	s.mu.Unlock()

	plan, err := pipeline.BuildServingPlan(s.cfg.Stages, s.cfg.MicroBatches)
	if err != nil {
		return err
	}
	mem := s.cfg.Model.ServeStageMemUsed(s.cfg.MicroBatches)
	clients, err := pipeline.NewStageClients(s.devices, "serve-s", func(int) int64 { return mem })
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.clients = clients
	s.plan = plan

	nb := s.cfg.numBatches()
	s.readyAt = make([]time.Duration, nb)
	for b := 0; b < nb; b++ {
		last := (b+1)*s.cfg.BatchSize - 1
		if last >= len(s.cfg.Arrivals) {
			last = len(s.cfg.Arrivals) - 1
		}
		s.readyAt[b] = s.cfg.Arrivals[last]
	}
	s.beginFn = s.beginBatch

	rc := pipeline.RunnerConfig{
		Stages:          s.cfg.Stages,
		VirtualPerStage: 1,
		Cycles:          nb,
		MBAlloc:         s.cfg.MicroBatches,
		Comm:            s.cfg.Model.CommLatency,
		ProcName:        "serve-s",
		Label:           "infer",
		CycleDone:       s.endBatch,
		Failed:          s.opFailed,
	}
	rc.Durations[pipeline.OpForward] = s.cfg.Model.FPPerMB
	s.run = pipeline.NewRunner(s.procs, clients, rc)
	s.scheduleBatch()
	return nil
}

// scheduleBatch dispatches the next batch now if its last request has
// arrived, or arms the gate timer for the arrival instant (the open-loop
// gate: the pipeline idles — harvestably — until the batch fills).
func (s *Server) scheduleBatch() {
	now := s.eng.Now()
	if at := s.readyAt[s.next]; at > now {
		s.gate = simtime.Reschedule(s.eng, s.gate, at-now, "serve-batch", s.beginFn)
		return
	}
	s.beginBatch()
}

// beginBatch records the dispatch, fires the instrumentation hooks and
// releases the stages. Runs in engine-callback or Start context.
func (s *Server) beginBatch() {
	now := s.eng.Now()
	s.mu.Lock()
	s.batchStart = append(s.batchStart, now)
	hooks := s.onBatchStart // append-only: the prefix is stable outside the lock
	s.mu.Unlock()
	for _, h := range hooks {
		h(s.next, now)
	}
	s.run.Release(s.plan)
}

// endBatch is the runner's barrier callback: the last stage has drained
// batch b, so score its requests' latencies and gate the next batch (or
// finish serving).
func (s *Server) endBatch(b int) {
	now := s.eng.Now()
	first := b * s.cfg.BatchSize
	last := min(first+s.cfg.BatchSize, len(s.cfg.Arrivals))
	s.mu.Lock()
	s.batchEnd = append(s.batchEnd, now)
	for _, at := range s.cfg.Arrivals[first:last] {
		s.latencies = append(s.latencies, now-at)
	}
	hooks := s.onBatchEnd
	s.mu.Unlock()

	for _, h := range hooks {
		h(b, now)
	}
	if s.next = b + 1; s.next >= s.cfg.numBatches() {
		s.done.Set()
		return
	}
	s.scheduleBatch()
}

func (s *Server) opFailed(stage int, op pipeline.Op, err error) {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = fmt.Errorf("serve: stage %d mb %d: %w", stage, op.MB, err)
	}
	s.mu.Unlock()
}
