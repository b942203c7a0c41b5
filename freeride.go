// Package freeride is a Go implementation of FreeRide — "FreeRide:
// Harvesting Bubbles in Pipeline Parallelism" (Middleware '25) — a
// middleware that serves generic GPU side tasks inside the bubbles of
// pipeline-parallel LLM training with ~1% training overhead.
//
// The package assembles the full system on a deterministic discrete-event
// simulation of the paper's testbed: a pipeline-parallel trainer whose
// bubbles emerge from FP/BP dependencies, the side task manager and per-GPU
// workers (paper Algorithms 1 and 2), the iterative/imperative side-task
// interfaces, CUDA-MPS-style memory limits, and the MPS / naive co-location
// baselines. ROADMAP.md's model sections (schedule, serving, failure) state
// what is simulated and how; benchmark/README.md what is measured.
//
// Quick start:
//
//	cfg := freeride.DefaultConfig()
//	cfg.Method = freeride.MethodIterative
//	sess, err := freeride.NewSession(cfg)
//	...
//	sess.SubmitEverywhere(model.ResNet18)
//	res, err := sess.Run()
//	fmt.Printf("overhead %.1f%%, savings %.1f%%\n", 100*res.Cost.I, 100*res.Cost.S)
package freeride

import (
	"fmt"
	"math"
	"sync"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/container"
	"freeride/internal/core"
	"freeride/internal/cost"
	"freeride/internal/freerpc"
	"freeride/internal/model"
	"freeride/internal/pipeline"
	"freeride/internal/serve"
	"freeride/internal/sidetask"
	"freeride/internal/simfault"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// Method selects how side tasks co-locate with pipeline training
// (paper §6.1.2).
type Method int

// Co-location methods.
const (
	// MethodNone runs pipeline training alone (the T_noSideTask baseline).
	MethodNone Method = iota + 1
	// MethodIterative is FreeRide with the iterative interface.
	MethodIterative
	// MethodImperative is FreeRide with the imperative interface.
	MethodImperative
	// MethodMPS co-locates side tasks directly under CUDA MPS, running
	// them continuously with no bubble awareness.
	MethodMPS
	// MethodNaive co-locates side tasks without MPS (context
	// time-slicing), also continuously.
	MethodNaive
)

// harvests reports whether the method is FreeRide proper: side tasks go
// through the manager and run only inside reported bubbles.
func (m Method) harvests() bool { return m == MethodIterative || m == MethodImperative }

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodNone:
		return "none"
	case MethodIterative:
		return "freeride-iterative"
	case MethodImperative:
		return "freeride-imperative"
	case MethodMPS:
		return "mps"
	case MethodNaive:
		return "naive"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config describes one co-location experiment.
type Config struct {
	// LLM is the pipeline-trained model (paper: nanoGPT 1.2B/3.6B/6B).
	LLM model.LLM
	// Stages and MicroBatches shape the pipeline (paper: 4 stages,
	// micro-batches 4/6/8).
	Stages       int
	MicroBatches int
	// Epochs is the number of training epochs (paper: 128).
	Epochs int
	// Schedule is the pipeline schedule (default 1F1B as in DeepSpeed).
	Schedule pipeline.ScheduleKind
	// VirtualStages > 1 enables interleaved scheduling (virtual pipeline
	// chunks per GPU) — the bubble-reduction alternative of the paper's
	// related work, kept here so FreeRide's harvest can be measured on an
	// already-optimized pipeline.
	VirtualStages int
	// Method selects the co-location approach.
	Method Method
	// Grace is the worker's framework-enforced kill delay.
	Grace time.Duration
	// RPCLatency is the one-way latency of the simulated control-plane
	// links.
	RPCLatency time.Duration
	// SafetyMargin shrinks reported bubble durations (reporter-side).
	SafetyMargin time.Duration
	// WorkScale selects how much real computation side tasks perform.
	WorkScale sidetask.WorkScale
	// Seed drives all task-level randomness.
	Seed int64
	// Serving switches the session from the closed training job to the
	// open-loop inference-serving workload: a seeded request-arrival trace
	// drives the pipeline in per-batch fill/execute/drain cycles, the
	// manager harvests the inter-batch and fill/drain bubbles through the
	// same Algorithm-1 path, and per-request latency is recorded against
	// the SLO (Result.ServingStats). Nil — the default — selects training.
	// Both run on one cycle driver under one session path, so everything
	// that hangs off the control plane composes: serving takes Faults (a
	// bursty trace rides through a worker crash under its SLO guard); it
	// does not take Drift or Replan yet (normalize says why).
	Serving *ServingConfig
	// Faults is the seeded fault schedule injected into the run (crash /
	// sever / drop / delay / fail-kernel / wedge, all on the virtual clock),
	// under either workload: the hooks sit on the manager↔worker links, the
	// workers and the side-task GPU clients, never on the main job. Non-nil
	// — even empty — wires them and enables the manager's lease-based
	// self-healing; nil leaves the control plane exactly as before. An empty
	// schedule with hooks wired must reproduce the no-fault metrics
	// bit-identically, training or serving (the zero-fault oracle). Only
	// NewSession takes one: a node or manager session refuses it. A schedule
	// that fails simfault.Schedule.Validate is refused.
	Faults *simfault.Schedule
	// Lease is the manager's failure-detector lease; 0 with Faults set
	// selects core.DefaultLease. See core.ManagerOptions.Lease.
	Lease time.Duration
	// MaxRestarts tunes task recovery (0 = core.DefaultMaxRestarts).
	MaxRestarts int
	// Drift is the seeded bubble-drift schedule: the trainer's reported
	// bubble trace is reshaped on the virtual clock (parameter-freeze stage
	// shrink, elastic micro-batch resize, stage rebalance, straggler
	// windows); the training itself is untouched. Nil leaves the reporter
	// untouched; an empty schedule wires the drift plane with identity
	// scaling and must reproduce the no-drift metrics bit-identically (the
	// zero-drift oracle). A schedule that fails DriftSchedule.Validate is
	// refused.
	Drift *bubble.DriftSchedule
	// Replan arms the manager's online re-profiling: per-worker EWMA+CUSUM
	// drift detectors over the bubble-report stream, and an Algorithm-1
	// re-plan (demote/park/revive) on every detection. Nil trusts the
	// one-shot profile forever, the paper's behaviour. The zero value of
	// the config selects the detector defaults.
	Replan *bubble.DetectorConfig

	// record turns on the op log and the GPU occupancy/memory series. Only
	// ProfileSession sets it: no other session records.
	record bool
}

// ServingConfig describes the open-loop inference-serving workload
// (Config.Serving). Requests arrive on a seeded trace, are grouped into
// fixed-size batches, and each batch runs a forward-only fill/execute/drain
// pipeline cycle; per-request latency (completion minus arrival) is scored
// against SLO.
type ServingConfig struct {
	// Trace selects the arrival process (Poisson / diurnal / bursty);
	// zero-valued selects Poisson. Arrivals are seeded from Config.Seed.
	Trace serve.TraceKind
	// Rate is the mean request arrival rate in requests/second (default 2).
	Rate float64
	// Burstiness shapes the non-Poisson traces: the diurnal modulation
	// depth, or the bursty on/off rate ratio (default 1).
	Burstiness float64
	// Requests is the trace length (default 6×Config.Epochs, so the same
	// epochs knob that scales training runs scales serving runs).
	Requests int
	// BatchSize is the number of requests per pipeline batch (default 8).
	// A batch dispatches once its last request has arrived and the
	// previous batch has drained; a final partial batch still pays the
	// full pipeline span (padding).
	BatchSize int
	// SLO is the per-request latency objective (default 6s). Violations
	// count requests whose latency exceeds it.
	SLO time.Duration
	// Guard is the manager's SLO admission factor: a paused side task is
	// started into a bubble only if the bubble's remaining time is at
	// least Guard × the task's pause fit (profile step + jitter + host
	// overhead). 0 admits into any open bubble (maximum harvest, maximum
	// SLO risk); raising it trades harvested GPU-seconds for fewer
	// violations. See core.ManagerOptions.SLOGuard.
	Guard float64
}

// Arrival-trace kinds for ServingConfig.Trace, re-exported from the serve
// package so callers configure sessions without importing internals.
const (
	TracePoisson = serve.TracePoisson
	TraceDiurnal = serve.TraceDiurnal
	TraceBursty  = serve.TraceBursty
)

func (sc *ServingConfig) normalize(epochs int) error {
	for _, v := range []float64{sc.Rate, sc.Burstiness, sc.Guard} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("freeride: serving rate %v, burstiness %v and SLO guard %v must be finite",
				sc.Rate, sc.Burstiness, sc.Guard)
		}
	}
	if sc.Trace == 0 {
		sc.Trace = serve.TracePoisson
	}
	if sc.Rate <= 0 {
		sc.Rate = 2
	}
	if sc.Burstiness < 0 {
		return fmt.Errorf("freeride: negative serving burstiness")
	}
	if sc.Burstiness == 0 {
		sc.Burstiness = 1
	}
	if sc.Requests <= 0 {
		sc.Requests = 6 * epochs
	}
	if sc.BatchSize <= 0 {
		sc.BatchSize = 8
	}
	if sc.SLO <= 0 {
		sc.SLO = 6 * time.Second
	}
	if sc.Guard < 0 {
		return fmt.Errorf("freeride: negative serving SLO guard")
	}
	return nil
}

// DefaultConfig mirrors the paper's principal setup: nanoGPT-3.6B on a
// 4-stage pipeline with 4 micro-batches.
func DefaultConfig() Config {
	return Config{
		LLM:          model.NanoGPT3B,
		Stages:       4,
		MicroBatches: 4,
		Epochs:       16,
		Schedule:     pipeline.Schedule1F1B,
		Method:       MethodIterative,
		Grace:        core.DefaultGrace,
		RPCLatency:   200 * time.Microsecond,
		WorkScale:    sidetask.WorkSmall,
		Seed:         1,
	}
}

func (c *Config) normalize() error {
	if c.LLM.Name == "" {
		c.LLM = model.NanoGPT3B
	}
	if c.Stages <= 0 {
		c.Stages = 4
	}
	if c.MicroBatches <= 0 {
		c.MicroBatches = 4
	}
	if c.Epochs <= 0 {
		c.Epochs = 16
	}
	if c.Schedule == 0 {
		c.Schedule = pipeline.Schedule1F1B
	}
	if c.Schedule == pipeline.ScheduleInterleaved && c.VirtualStages < 2 {
		c.VirtualStages = 2
	}
	if c.Schedule == pipeline.ScheduleZeroBubble && c.VirtualStages > 1 {
		return fmt.Errorf("freeride: zero-bubble schedule does not compose with virtual stages")
	}
	if c.Method == 0 {
		c.Method = MethodIterative
	}
	if c.Grace <= 0 {
		c.Grace = core.DefaultGrace
	}
	if c.RPCLatency < 0 {
		return fmt.Errorf("freeride: negative RPC latency")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.Stages); err != nil {
			return err
		}
		if c.Lease == 0 {
			c.Lease = core.DefaultLease
		}
	}
	if c.Drift != nil {
		if err := c.Drift.Validate(c.Stages); err != nil {
			return err
		}
	}
	if c.Serving != nil {
		switch c.Method {
		case MethodNone, MethodIterative, MethodImperative:
		default:
			return fmt.Errorf("freeride: serving supports MethodNone and the FreeRide methods, not %v", c.Method)
		}
		if c.Drift != nil || c.Replan != nil {
			// Faults compose (the fault plane hangs off the control-plane
			// links, not the workload). The drift plane does not yet: the
			// estimator's window closes on a fixed report count per cycle,
			// and the request-driven reporter's count varies batch to batch.
			return fmt.Errorf("freeride: serving does not compose with Drift or Replan yet: " +
				"the drift estimator windows by report count per cycle, which the request-driven reporter does not hold constant")
		}
		if err := c.Serving.normalize(c.Epochs); err != nil {
			return err
		}
	}
	return nil
}

// TaskPlacement records where one task instance landed.
type TaskPlacement struct {
	Name    string
	Profile model.TaskProfile
	Mode    sidetask.Mode
	Worker  int // stage index
}

// Session is one assembled simulation.
type Session struct {
	cfg Config

	Eng     *simtime.Virtual
	eng     *simtime.Virtual // Eng, or the engine a live daemon paces
	Procs   *simproc.Runtime
	Devices []*simgpu.Device
	// Trainer or Server is the workload assembled (the other is nil);
	// w is all the session itself asks of it.
	Trainer *pipeline.Trainer
	Server  *serve.Server
	w       workload
	Manager *core.Manager
	Workers []*core.Worker

	// Profile is the offline bubble profile (training, FreeRide methods).
	Profile *bubble.Profile
	// injector drives the deterministic fault plane (nil without cfg.Faults).
	injector *simfault.Injector
	// workerIdx maps worker name → index in Workers, built at assembly so
	// Submit resolves placements in O(1) instead of scanning.
	workerIdx map[string]int

	placements        []TaskPlacement
	baselineHarnesses []*sidetask.Harness
	finalCounters     map[string]sidetask.Counters
	customTasks       map[string]CustomTask
	nameSeq           int
	started           bool
}

// CustomTask builds a user-defined side-task implementation. The
// constructor runs on the worker that the manager places the task on, once
// per deployed instance — mirroring the paper's workflow where programmers
// adapt their own GPU workloads to the iterative interface (Figure 6).
type CustomTask func(seed int64) sidetask.Iterative

// NewSession assembles the devices, the workload — the trainer, or the server
// under Config.Serving — and, for the FreeRide methods, the manager and the
// workers fed by the workload's bubble source, all on one virtual engine.
func NewSession(cfg Config) (*Session, error) {
	s := &Session{Eng: simtime.NewVirtual()}
	return s.assemble(cfg, s.Eng, memLinks{s}, true, true)
}

// NewNodeSession assembles on eng the GPU node of a session whose manager
// runs in another process (paper §8): devices, workload, workers and bubble
// reporter, linked to the manager by links. The caller starts the workload.
func NewNodeSession(cfg Config, eng *simtime.Virtual, links Links) (*Session, error) {
	return new(Session).assemble(cfg, eng, links, true, false)
}

// NewManagerSession assembles on eng the manager of a session whose GPU node
// runs in another process, linked to the workers by links; the caller starts it.
func NewManagerSession(cfg Config, eng *simtime.Virtual, links Links) (*Session, error) {
	return new(Session).assemble(cfg, eng, links, false, true)
}

// Links makes a session's control-plane links (paper §4.6): Link(stage) the
// one between the manager and the stage's worker, Link(-1) the one on which
// the workload reports bubbles. Link gets the handler table of each end this
// process assembles (nil for the other process's end; the reporter's end
// serves none) and returns those ends' peers. A simulated session makes both
// ends in memory (memLinks); a live daemon its own over TCP (livemode).
type Links interface {
	Link(stage int, mgr, far *freerpc.Mux) (mgrEnd, farEnd *freerpc.Peer, err error)
}

// memLinks makes both ends of every link in memory; typed DTOs cross as-is.
type memLinks struct{ s *Session }

func (l memLinks) Link(_ int, mgr, far *freerpc.Mux) (*freerpc.Peer, *freerpc.Peer, error) {
	a, b := freerpc.MemPipe(l.s.eng, l.s.cfg.RPCLatency)
	return freerpc.NewPeer(l.s.eng, a, mgr), freerpc.NewPeer(l.s.eng, b, far), nil
}

// assemble builds on eng the node part of a session, its manager, or both,
// linked by links.
func (s *Session) assemble(cfg Config, eng *simtime.Virtual, links Links, node, manager bool) (*Session, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Faults != nil && !(node && manager) {
		// The injector binds each fault to both ends of a worker's link.
		return nil, fmt.Errorf("freeride: a fault schedule needs the node and the manager in one session")
	}
	s.cfg, s.eng = cfg, eng
	if node {
		s.Procs = simproc.NewRuntime(eng)
		policy := simgpu.PolicyMPS
		if cfg.Method == MethodNaive {
			policy = simgpu.PolicyTimeSlice
		}
		tax := simgpu.DefaultResidencyTax
		if cfg.Method == MethodNaive || cfg.Method == MethodNone {
			tax = 0
		}
		s.Devices = make([]*simgpu.Device, cfg.Stages)
		for i := range s.Devices {
			s.Devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{
				Name:         fmt.Sprintf("gpu%d", i),
				MemBytes:     model.ServerI.GPUMemBytes,
				Policy:       policy,
				ResidencyTax: tax,
				NoTraces:     !cfg.record,
			})
		}
		// The one place a session asks which workload it runs.
		newWorkload := s.newTraining
		if cfg.Serving != nil {
			newWorkload = s.newServing
		}
		if err := newWorkload(); err != nil {
			return nil, err
		}
	}
	if cfg.Method.harvests() {
		if err := s.assembleControlPlane(links, manager); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// assembleControlPlane builds the manager (if this process holds it) and the
// workers (if it holds the devices), links them, and feeds the workload's
// bubble source to the manager.
func (s *Session) assembleControlPlane(links Links, manager bool) error {
	cfg := s.cfg
	var mgrMux *freerpc.Mux
	if manager {
		var guard float64
		if cfg.Serving != nil {
			guard = cfg.Serving.Guard
		}
		s.Manager = core.NewManager(s.eng, core.ManagerOptions{
			MemSlack:    core.DefaultMemSlack,
			Lease:       cfg.Lease,
			MaxRestarts: cfg.MaxRestarts,
			Seed:        cfg.Seed,
			Replan:      cfg.Replan,
			SLOGuard:    guard,
		})
		mgrMux = s.Manager.Mux()
		if cfg.Faults != nil {
			s.injector = simfault.NewInjector(s.eng, cfg.Faults)
		}
	}
	s.workerIdx = make(map[string]int, cfg.Stages)
	for i := 0; i < cfg.Stages; i++ {
		name := fmt.Sprintf("worker%d", i)
		var w *core.Worker
		var wmux *freerpc.Mux
		if s.Devices != nil {
			w = core.NewWorker(s.eng, s.Devices[i], container.NewRuntime(s.Procs), core.WorkerConfig{
				Name:    name,
				Grace:   cfg.Grace,
				Factory: s.taskFactory,
			})
			wmux = freerpc.NewMux()
			w.RegisterOn(wmux)
		}
		mgrPeer, wPeer, err := links.Link(i, mgrMux, wmux)
		if err != nil {
			return err
		}
		if w != nil {
			w.SetNotify(func(method string, params any) { _ = wPeer.Notify(method, params) })
			s.Workers = append(s.Workers, w)
		}
		if manager {
			s.Manager.AddWorker(name, i, s.stageMem(i), mgrPeer)
		}
		s.workerIdx[name] = i
		if s.injector != nil {
			// Transport-level faults hook the manager↔worker link; kernel
			// faults target only side-task GPU clients ("ctr/" prefix), never
			// the training clients; crash/wedge act on the worker itself.
			lf := freerpc.InjectFaults(mgrPeer.Conn())
			wrk, device := w, s.Devices[i]
			s.injector.Bind(i, simfault.Hooks{
				CrashWorker: func() {
					wrk.Crash()
					mgrPeer.Close()
				},
				SeverLink:  func() { mgrPeer.Close() },
				DropRPC:    lf.DropFor,
				DelayRPC:   lf.DelayFor,
				FailKernel: func() { device.InjectKernelFault("ctr/") },
				WedgeTask:  wrk.WedgeFor,
			})
		}
	}

	// The instrumented workload reports bubbles to the manager over its own
	// RPC link (paper step ➎).
	_, reporter, err := links.Link(-1, mgrMux, nil)
	if err != nil || s.Devices == nil {
		return err
	}
	s.w.source(s.newBubbleSink(reporter))
	return nil
}

// newBubbleSink returns the emit function of the bubble-report link whose
// reporter end is reporter. Reports are pooled: the manager's end of an
// in-memory link hands each one back once the handler has read it, a wire end
// once it has marshalled it (see freerpc.Msg).
func (s *Session) newBubbleSink(reporter *freerpc.Peer) func(bubble.Bubble) {
	reports := new(freerpc.Pool[bubble.Bubble])
	return func(b bubble.Bubble) {
		d := reports.Get()
		d.V = b
		_ = reporter.Notify("Manager.AddBubble", d)
	}
}

// stageMem is the GPU memory stage leaves to side tasks. It is a closed form
// of the Config, so a manager assembled apart from its workload has it too.
func (s *Session) stageMem(stage int) int64 {
	c := &s.cfg
	if c.Serving != nil {
		return c.LLM.ServeStageMemAvailable(model.ServerI.GPUMemBytes, c.MicroBatches)
	}
	return c.LLM.StageMemAvailableSched(model.ServerI.GPUMemBytes, c.Schedule,
		stage, c.Stages, c.MicroBatches, c.VirtualStages)
}

// taskFactory resolves harnesses on the worker side: custom registrations
// first (matched by the profile name carried in the spec), then the six
// built-in tasks.
func (s *Session) taskFactory(spec core.TaskSpec) (*sidetask.Harness, error) {
	if build, ok := s.customTasks[spec.Profile.Name]; ok {
		return sidetask.NewIterativeHarness(spec.Name, spec.Profile, build(spec.Seed), spec.Seed), nil
	}
	return core.BuiltinHarnessFactory(spec)
}

// RegisterCustom registers a user-defined iterative side task under
// profile.Name. Subsequent Submit/SubmitEverywhere calls with that profile
// deploy the custom implementation instead of a built-in. The profile's
// performance characteristics should come from the automated profiler
// (internal/profiler) — the paper's step ➋ — and must pass
// model.TaskProfile.Validate.
func (s *Session) RegisterCustom(profile model.TaskProfile, build CustomTask) error {
	if profile.Name == "" {
		return fmt.Errorf("freeride: custom task needs a profile name")
	}
	if build == nil {
		return fmt.Errorf("freeride: custom task %q needs a constructor", profile.Name)
	}
	if err := profile.Validate(); err != nil {
		return err
	}
	if s.customTasks == nil {
		s.customTasks = make(map[string]CustomTask)
	}
	if _, dup := s.customTasks[profile.Name]; dup {
		return fmt.Errorf("freeride: custom task %q already registered", profile.Name)
	}
	s.customTasks[profile.Name] = build
	return nil
}

// EligibleStages lists the pipeline stages whose bubbles have enough GPU
// memory for the task, including the MemSlack headroom the manager's MPS
// limit carries — the same admission predicate Algorithm 1 applies, so a
// stage listed here is never rejected at Submit time.
func (s *Session) EligibleStages(p model.TaskProfile) []int {
	var out []int
	for stage := 0; stage < s.cfg.Stages; stage++ {
		if core.AdmitsMem(s.stageMem(stage), p.MemBytes, core.DefaultMemSlack) {
			out = append(out, stage)
		}
	}
	return out
}

// Submit places one instance of the task. For the FreeRide methods it goes
// through the manager (Algorithm 1); for the baselines the instance is
// pinned to the requested stage. A profile model.TaskProfile.Validate
// refuses is refused under every method.
func (s *Session) Submit(p model.TaskProfile, stage int) error {
	// Before the method switch: the baselines never reach the manager.
	if err := p.Validate(); err != nil {
		return err
	}
	mode := sidetask.ModeIterative
	if s.cfg.Method == MethodImperative {
		mode = sidetask.ModeImperative
	}
	s.nameSeq++
	name := fmt.Sprintf("%s-%d", p.Name, s.nameSeq)
	seed := s.cfg.Seed + int64(s.nameSeq)*7919

	switch s.cfg.Method {
	case MethodIterative, MethodImperative:
		spec := core.TaskSpec{
			Name:      name,
			Profile:   p,
			Mode:      mode,
			WorkScale: s.cfg.WorkScale,
			Seed:      seed,
		}
		placed, err := s.Manager.SubmitAndPlace(spec)
		if err != nil {
			return err
		}
		widx := -1
		if i, ok := s.workerIdx[placed]; ok {
			widx = i
		}
		s.placements = append(s.placements, TaskPlacement{
			Name: name, Profile: p, Mode: mode, Worker: widx,
		})
		return nil
	case MethodMPS, MethodNaive:
		return s.submitBaseline(name, p, stage, seed)
	case MethodNone:
		return fmt.Errorf("freeride: MethodNone accepts no side tasks")
	default:
		return fmt.Errorf("freeride: unknown method %v", s.cfg.Method)
	}
}

// SubmitEverywhere places one instance of the task on every stage whose
// available memory fits it (the paper's "we run the same side task in all
// workers if they have enough GPU memory"). It reports how many instances
// were placed.
func (s *Session) SubmitEverywhere(p model.TaskProfile) (int, error) {
	stages := s.EligibleStages(p)
	for _, stage := range stages {
		if err := s.Submit(p, stage); err != nil {
			return 0, err
		}
	}
	return len(stages), nil
}

// submitBaseline deploys a continuously running side task on the stage's
// GPU, bubble-blind: this is the direct-MPS / naive co-location comparison
// point.
func (s *Session) submitBaseline(name string, p model.TaskProfile, stage int, seed int64) error {
	if stage < 0 || stage >= len(s.Devices) {
		return fmt.Errorf("freeride: stage %d out of range", stage)
	}
	h, err := s.taskFactory(core.TaskSpec{
		Name:      name,
		Profile:   p,
		Mode:      sidetask.ModeIterative,
		WorkScale: s.cfg.WorkScale,
		Seed:      seed,
	})
	if err != nil {
		return err
	}
	ctrs := container.NewRuntime(s.Procs)
	cspec := container.Spec{
		Name:   name,
		Device: s.Devices[stage],
		// Baselines impose no MPS memory limit (naive) / a permissive one.
	}
	if _, err := h.Launch(ctrs, cspec); err != nil {
		return err
	}
	// Script the lifecycle: init immediately, then run forever.
	s.eng.ScheduleBy(simtime.OwnerSideTask, 0, func() {
		h.Deliver(sidetask.Command{Transition: sidetask.TransitionInit})
		h.Deliver(sidetask.Command{Transition: sidetask.TransitionStart, BubbleEnd: 1 << 62})
	})
	s.placements = append(s.placements, TaskPlacement{
		Name: name, Profile: p, Mode: sidetask.ModeIterative, Worker: stage,
	})
	s.baselineHarnesses = append(s.baselineHarnesses, h)
	return nil
}

// TaskWork describes one task instance's completed work after a run.
type TaskWork struct {
	TaskPlacement
	Steps      uint64
	KernelTime time.Duration
	HostTime   time.Duration
	InsuffWait time.Duration
	// StepEvents is the nominal count of engine events the step loop spends
	// on the completed steps, as a loop that folds no completion spends them
	// (see sidetask.Counters.StepEvents): one per single-kernel step in every
	// simulated session, on the inline loop of the built-in tasks and on the
	// goroutine shell of a RegisterCustom task alike. Completions folded into
	// the one before them count here but not in Result.Events (they are in
	// Result.Folded). It is substrate accounting, not a result: a re-placed
	// task resumes Steps from its checkpoint but not StepEvents.
	StepEvents uint64
	Exited     bool
	ExitErr    string
	// Parked means the task exhausted its recovery retry budget; Restarts
	// counts recovery attempts consumed (fault runs only).
	Parked   bool
	Restarts int
}

// Result is the outcome of Session.Run.
type Result struct {
	Config    Config
	TrainTime time.Duration
	Tasks     []TaskWork
	// Cost is filled by CostReport (needs the no-side-task baseline).
	Cost cost.Report
	// Manager/Worker stats (FreeRide methods only).
	ManagerStats core.ManagerStats
	WorkerStats  []core.WorkerStats
	// FaultStats counts injected fault events (fault runs only).
	FaultStats simfault.Stats
	// ServingStats carries the per-request latency distribution and SLO
	// accounting of a serving session (Config.Serving != nil); it is the
	// zero value for training sessions.
	ServingStats serve.Stats
	// Events counts the engine events the session dispatched through its
	// teardown, indexed by simtime.Owner (simtime.Virtual.DispatchedBy): it
	// says which layer spent them. Like TaskWork.StepEvents it is accounting,
	// not a result, so no result digest reads it.
	Events [simtime.NumOwners]uint64
	// Folded counts, the same way, the kernel completions the session ran
	// folded into the dispatch before them (simtime.Virtual.FoldedBy): each
	// would have been one more event in Events.
	Folded [simtime.NumOwners]uint64
}

// TotalSteps sums completed steps across task instances.
func (r *Result) TotalSteps() uint64 {
	var sum uint64
	for _, t := range r.Tasks {
		sum += t.Steps
	}
	return sum
}

// TotalStepEvents sums step-loop engine events across task instances (the
// numerator of the bench report's sidetask_events_per_step metric).
func (r *Result) TotalStepEvents() uint64 {
	var sum uint64
	for _, t := range r.Tasks {
		sum += t.StepEvents
	}
	return sum
}

// Run starts the workload of a NewSession (and the manager and fault
// injector), drains the simulation until the last cycle — epoch or request
// batch — retires, and collects all measurements.
func (s *Session) Run() (*Result, error) {
	if s.Eng == nil {
		return nil, fmt.Errorf("freeride: Run drives a session's virtual engine; a node or manager session runs on its caller's engine")
	}
	if s.started {
		return nil, fmt.Errorf("freeride: session already ran")
	}
	s.started = true

	// Freeze every task's counters at the instant the final cycle ends: only
	// work completed during the run counts, exactly as in the paper's
	// measurement window.
	d := s.w.driver
	last := d.Cycles() - 1
	d.OnCycleEnd(func(cycle int, _ time.Duration) {
		if cycle == last {
			s.snapshotCounters()
		}
	})

	if err := d.Start(); err != nil {
		return nil, err
	}
	if s.Manager != nil {
		s.Manager.Start()
	}
	if s.injector != nil {
		s.injector.Start()
	}
	// Generous event budget: aborts runaway simulations loudly. The drain
	// stops at the exact event that sets Done — the per-event flag check is
	// one bool load — so the teardown below (StopAll and its grace
	// window) always begins at the same virtual instant regardless of how
	// many bookkeeping events happen to be queued. Batch-draining here used
	// to overshoot Done by up to a batch, which made teardown timing (and
	// thus worker stop/kill counters) depend on incidental event counts.
	const maxEvents = 500_000_000
	const budgetCheckEvery = 4096
	done := d.Done()
	for n := uint64(0); !done.IsSet(); n++ {
		if !s.Eng.Step() {
			return nil, fmt.Errorf("freeride: simulation stalled at t=%v", s.Eng.Now())
		}
		if n%budgetCheckEvery == 0 && s.Eng.Dispatched() > maxEvents {
			return nil, fmt.Errorf("freeride: event budget exceeded at t=%v", s.Eng.Now())
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if s.Manager != nil {
		s.Manager.Stop()
		s.Manager.StopAll()
		s.Eng.RunFor(2 * s.cfg.Grace)
	}
	res := s.collectResult(d.TotalTime())
	s.w.collect(res)
	return res, nil
}

// collectResult assembles the Result after teardown: manager/worker stats,
// fault stats and per-task work.
func (s *Session) collectResult(trainTime time.Duration) *Result {
	res := &Result{Config: s.cfg, TrainTime: trainTime, Events: s.Eng.DispatchedBy(), Folded: s.Eng.FoldedBy()}
	var views map[string]core.TaskView
	if s.Manager != nil {
		res.ManagerStats = s.Manager.Stats()
		for _, w := range s.Workers {
			res.WorkerStats = append(res.WorkerStats, w.Stats())
		}
		views = make(map[string]core.TaskView)
		for _, tv := range s.Manager.Tasks() {
			views[tv.Spec.Name] = tv
		}
	}
	if s.injector != nil {
		res.FaultStats = s.injector.Stats()
	}
	for _, pl := range s.placements {
		tw := TaskWork{TaskPlacement: pl}
		if c, ok := s.finalCounters[pl.Name]; ok {
			tw.Steps = c.Steps
			tw.KernelTime = c.KernelTime
			tw.HostTime = c.HostTime
			tw.InsuffWait = c.InsuffWait
			tw.StepEvents = c.StepEvents
		}
		if tv, ok := views[pl.Name]; ok {
			tw.Exited = tv.Exited
			tw.ExitErr = tv.ExitErr
			tw.Parked = tv.Parked
			tw.Restarts = tv.Restarts
		}
		res.Tasks = append(res.Tasks, tw)
	}
	return res
}

// snapshotCounters freezes task counters (engine-callback context).
func (s *Session) snapshotCounters() {
	s.finalCounters = make(map[string]sidetask.Counters, len(s.placements))
	for i, pl := range s.placements {
		var h *sidetask.Harness
		switch s.cfg.Method {
		case MethodIterative, MethodImperative:
			// Recovery may have moved the task off its original worker:
			// resolve the current host through the manager, falling back to
			// the placement-time worker.
			widx := pl.Worker
			if name, ok := s.Manager.TaskWorker(pl.Name); ok {
				if j, ok := s.workerIdx[name]; ok {
					widx = j
				}
			}
			if widx >= 0 {
				h, _ = s.Workers[widx].Harness(pl.Name)
			}
		default:
			if i < len(s.baselineHarnesses) {
				h = s.baselineHarnesses[i]
			}
		}
		if h != nil {
			s.finalCounters[pl.Name] = h.Counters()
		}
	}
}

// CostReport evaluates the paper's I and S metrics against a baseline
// training time measured with MethodNone.
func (r *Result) CostReport(tNoSideTask time.Duration) cost.Report {
	var work []cost.SideTaskWork
	for _, t := range r.Tasks {
		work = append(work, cost.SideTaskWork{
			Name:                t.Name,
			Steps:               t.Steps,
			DedicatedThroughput: t.Profile.ThroughputOn(model.ServerII),
		})
	}
	rep := cost.Compute(model.ServerI, model.ServerII, tNoSideTask, r.TrainTime, work)
	r.Cost = rep
	return rep
}

// --- memoized offline passes (profile, baseline) ---------------------------

// flightCache memoizes fn per key. Concurrent callers of one key — the
// parallel experiment runner's sessions sharing a configuration — share a
// single computation; a failed one is dropped, so the next caller retries.
type flightCache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

type flight[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (c *flightCache[K, V]) get(key K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	f := c.m[key]
	if f == nil {
		f = new(flight[V])
		c.m[key] = f
	}
	c.mu.Unlock()
	f.once.Do(func() { f.v, f.err = fn() })
	if f.err != nil {
		c.mu.Lock()
		if c.m[key] == f {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	return f.v, f.err
}

type profileKey struct {
	llm      string
	stages   int
	mbs      int
	schedule pipeline.ScheduleKind
	virtual  int
}

var profCache = flightCache[profileKey, *bubble.Profile]{m: map[profileKey]*flight[*bubble.Profile]{}}

// offlineBubbleProfile extracts the per-stage bubble templates from
// ProfileSession — the paper's one-time offline profiling pass (§4.3),
// memoized per configuration.
func offlineBubbleProfile(cfg Config) (*bubble.Profile, error) {
	key := profileKey{cfg.LLM.Name, cfg.Stages, cfg.MicroBatches, cfg.Schedule, cfg.VirtualStages}
	return profCache.get(key, func() (*bubble.Profile, error) {
		return runBubbleProfile(cfg)
	})
}

// runBubbleProfile is the uncached profiling pass: ProfileSession, read by the
// profiler.
func runBubbleProfile(cfg Config) (*bubble.Profile, error) {
	sess, err := ProfileSession(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.VirtualStages > 1 {
		// Interleaved chunks share a device, so op-gap analysis per chunk
		// cannot see the device's true idle time; profile from the
		// occupancy traces instead (the paper's actual mechanism).
		return bubble.ProfileFromTraces(sess.Trainer, 1, 0)
	}
	return bubble.ProfileTrainer(sess.Trainer, 1, 0)
}

// ProfileSession runs the offline profiling pass's session (paper §4.3) for
// cfg's pipeline shape — model, stages, micro-batches, schedule and virtual
// stages; every other field is ignored: two epochs of training alone
// (MethodNone) with the per-stage op log and the GPU occupancy and memory
// series recorded. It is the only session that records, and it is not
// memoized. The session is returned finished; Trainer and Devices hold what
// it recorded.
func ProfileSession(cfg Config) (*Session, error) {
	sess, err := NewSession(Config{
		LLM:           cfg.LLM,
		Stages:        cfg.Stages,
		MicroBatches:  cfg.MicroBatches,
		Epochs:        2,
		Schedule:      cfg.Schedule,
		VirtualStages: cfg.VirtualStages,
		Method:        MethodNone,
		record:        true,
	})
	if err != nil {
		return nil, err
	}
	if _, err := sess.Run(); err != nil {
		return nil, err
	}
	return sess, nil
}

// BaselineTrainTime runs (and memoizes, with singleflight) the no-side-task
// training for a config, returning T_noSideTask.
func BaselineTrainTime(cfg Config) (time.Duration, error) {
	if cfg.Serving != nil {
		return 0, fmt.Errorf("freeride: BaselineTrainTime is the training baseline; run a MethodNone serving session instead")
	}
	cfg.Method = MethodNone
	key := baselineKey{cfg.LLM.Name, cfg.Stages, cfg.MicroBatches, cfg.Epochs, cfg.Schedule, cfg.VirtualStages}
	return baseCache.get(key, func() (time.Duration, error) {
		sess, err := NewSession(cfg)
		if err != nil {
			return 0, err
		}
		res, err := sess.Run()
		if err != nil {
			return 0, err
		}
		return res.TrainTime, nil
	})
}

type baselineKey struct {
	llm      string
	stages   int
	mbs      int
	epochs   int
	schedule pipeline.ScheduleKind
	virtual  int
}

var baseCache = flightCache[baselineKey, time.Duration]{m: map[baselineKey]*flight[time.Duration]{}}
