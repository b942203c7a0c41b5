package pipeline

import (
	"fmt"
	"time"

	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// Workload is what a Driver cycles through the plan Runner: epochs for the
// Trainer, request batches for serve.Server. It carries only what differs
// between the two; everything they do alike is the Driver's.
type Workload struct {
	// Plan is the schedule every cycle of the run replays; it fixes the
	// pipeline's shape (stages, virtual chunks, micro-batches).
	Plan *Plan
	// RunnerConfig shapes the stage machines (Cycles is the run's cycle
	// count); the driver owns its CycleDone and Failed callbacks.
	RunnerConfig
	// Name prefixes errors ("pipeline", "serve"); ClientPrefix names the
	// per-stage GPU contexts (see NewStageClients).
	Name, ClientPrefix string
	// StageMem is the GPU memory the workload holds on a stage for the run.
	StageMem func(stage int) int64
	// ReadyAt, when set, is the earliest instant cycle c may be released; a
	// cycle whose predecessor retires sooner waits on the driver's one gate
	// timer. Nil releases each cycle inside its predecessor's barrier
	// callback: no timer, no engine event.
	ReadyAt func(cycle int) time.Duration
	// Close, when set, runs as cycle c retires, ahead of the end hooks.
	Close func(cycle int, now time.Duration)
}

// Driver runs a Workload's plan cycle after cycle over one device per stage —
// the same plan every cycle, fixed when the workload is built. It owns
// the stage clients, the Runner, the cycle stamps and hooks, and the run's
// started/failed/done state; Trainer and serve.Server embed it by value and
// keep only what is theirs.
type Driver struct {
	w       Workload
	eng     *simtime.Virtual
	procs   *simproc.Runtime
	devices []*simgpu.Device

	// Immutable after Start:
	clients []*simgpu.Client
	run     *Runner

	// next is the cycle about to be released; gate and its pre-bound callback
	// release it at its ReadyAt instant (engine context only).
	next    int
	gate    *simtime.Timer
	beginFn func()

	cycleStart []time.Duration
	cycleEnd   []time.Duration
	onStart    []func(cycle int, ts time.Duration)
	onEnd      []func(cycle int, ts time.Duration)
	started    bool
	failed     error

	done simproc.Latch
}

// Init binds the driver to its engine, devices and workload.
func (d *Driver) Init(eng *simtime.Virtual, procs *simproc.Runtime, devices []*simgpu.Device, w Workload) error {
	if len(devices) != w.Plan.Stages {
		return fmt.Errorf("%s: %d devices for %d stages", w.Name, len(devices), w.Plan.Stages)
	}
	d.w, d.eng, d.procs, d.devices = w, eng, procs, devices
	if w.ReadyAt != nil {
		d.beginFn = d.begin
	}
	// Sized up front: a steady-state cycle appends without allocating.
	d.cycleStart = make([]time.Duration, 0, w.Cycles)
	d.cycleEnd = make([]time.Duration, 0, w.Cycles)
	return nil
}

// OnCycleStart registers a hook invoked (in engine context) when each cycle
// is released — an epoch begins, a batch dispatches. This is one of the three
// instrumentation points of paper §4.6; the bubble sources hang off it.
func (d *Driver) OnCycleStart(fn func(cycle int, ts time.Duration)) {
	d.onStart = append(d.onStart, fn)
}

// OnCycleEnd registers a hook invoked when each cycle's barrier completes.
func (d *Driver) OnCycleEnd(fn func(cycle int, ts time.Duration)) {
	d.onEnd = append(d.onEnd, fn)
}

// Done returns a latch set when the last cycle has retired.
func (d *Driver) Done() *simproc.Latch { return &d.done }

// Cycles is the run's cycle count.
func (d *Driver) Cycles() int { return d.w.Cycles }

// Client returns the workload's GPU client on a stage (valid after Start).
func (d *Driver) Client(stage int) *simgpu.Client { return d.clients[stage] }

// Device returns the GPU device of a stage.
func (d *Driver) Device(stage int) *simgpu.Device { return d.devices[stage] }

// Err reports a failed run: the first op whose kernel completed with an
// error.
func (d *Driver) Err() error {
	return d.failed
}

// CycleTimes returns per-cycle (release, retire) pairs recorded so far.
func (d *Driver) CycleTimes() (starts, ends []time.Duration) {
	starts = append([]time.Duration(nil), d.cycleStart...)
	ends = append([]time.Duration(nil), d.cycleEnd...)
	return starts, ends
}

// TotalTime reports the makespan from the first release to the last retire.
func (d *Driver) TotalTime() time.Duration {
	if len(d.cycleEnd) == 0 {
		return 0
	}
	return d.cycleEnd[len(d.cycleEnd)-1] - d.cycleStart[0]
}

// Start allocates the workload's memory on every stage, spawns the stage
// processes and releases the first cycle (at its ReadyAt instant, if any).
// It returns immediately; completion is observable via Done. It is called
// from an engine callback, or on a paced engine inside simtime.Wall.Do (see
// Runner).
func (d *Driver) Start() error {
	if d.started {
		return fmt.Errorf("%s: already started", d.w.Name)
	}
	d.started = true

	clients, err := NewStageClients(d.devices, d.w.ClientPrefix, d.w.StageMem)
	if err != nil {
		return fmt.Errorf("%s: %w", d.w.Name, err)
	}
	d.clients = clients
	rc := d.w.RunnerConfig
	rc.CycleDone, rc.Failed = d.end, d.opFailed
	d.run = NewRunner(d.procs, clients, d.w.Plan, rc)
	d.release()
	return nil
}

// release opens cycle next now, or arms the gate for its ReadyAt instant (the
// open-loop gate: the pipeline idles — harvestably — until then).
func (d *Driver) release() {
	if d.w.ReadyAt != nil {
		if wait := d.w.ReadyAt(d.next) - d.eng.Now(); wait > 0 {
			d.gate = d.eng.Reschedule(d.gate, wait, "cycle-gate", d.beginFn)
			return
		}
	}
	d.begin()
}

// begin stamps the cycle's start, fires the instrumentation hooks and
// releases the stages. Engine-callback or Start context.
func (d *Driver) begin() {
	now := d.eng.Now()
	d.cycleStart = append(d.cycleStart, now)
	for _, h := range d.onStart {
		h(d.next, now)
	}
	d.run.Release()
}

// end is the runner's barrier callback: the last stage has retired the cycle,
// so close it and open the next (or finish the run).
func (d *Driver) end(cycle int) {
	now := d.eng.Now()
	if d.w.Close != nil {
		d.w.Close(cycle, now)
	}
	d.cycleEnd = append(d.cycleEnd, now)
	for _, h := range d.onEnd {
		h(cycle, now)
	}
	if d.next = cycle + 1; d.next >= d.w.Cycles {
		d.done.Set()
		return
	}
	d.release()
}

// opFailed records the run's first failure.
func (d *Driver) opFailed(stage int, op Op, err error) {
	if d.failed == nil {
		d.failed = fmt.Errorf("%s: stage %d mb %d: %v kernel: %w", d.w.Name, stage, op.MB, op.Kind, err)
	}
}
