// Package profiler implements FreeRide's automated side-task profiler
// (paper §4.3): before a task is submitted to the manager, it is run alone
// on a profiling GPU while its GPU memory consumption and per-step duration
// are recorded. The resulting profile drives the manager's placement
// (Alg. 1) and the program-directed execution-time limit (§4.5).
//
// The profiling run is fully self-contained: it spins up a private virtual
// engine and device, so profiling never perturbs the training simulation —
// exactly like the paper's offline profiling pass.
package profiler

import (
	"fmt"
	"math"
	"time"

	"freeride/internal/container"
	"freeride/internal/model"
	"freeride/internal/sidetask"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// Result is what the profiler measures.
type Result struct {
	// MemBytes is the peak GPU memory consumption observed.
	MemBytes int64
	// StepTime is the mean per-step duration including the interface's
	// host-side overhead. Zero for imperative tasks ("since the side task
	// is not step-wise, the automated profiling tool does not measure the
	// per-step duration", §4.3).
	StepTime time.Duration
	// Steps is how many steps the measurement averaged over.
	Steps int
	// CreateTime and InitTime are the observed transition latencies.
	CreateTime time.Duration
	InitTime   time.Duration
}

// Options tune the profiling run.
type Options struct {
	// Steps is the number of steps to average over (iterative tasks).
	Steps int
	// MaxRunTime bounds the profiling run.
	MaxRunTime time.Duration
	// Seed makes the profile deterministic.
	Seed int64
}

func (o *Options) normalize() {
	if o.Steps <= 0 {
		o.Steps = 30
	}
	if o.MaxRunTime <= 0 {
		o.MaxRunTime = 10 * time.Minute
	}
}

// HarnessFactory builds the harness to profile (a fresh instance; the
// profiled one is discarded afterwards).
type HarnessFactory func(seed int64) (*sidetask.Harness, error)

// BuiltinFactory profiles one of the built-in tasks.
func BuiltinFactory(profile model.TaskProfile, mode sidetask.Mode, scale sidetask.WorkScale) HarnessFactory {
	return func(seed int64) (*sidetask.Harness, error) {
		return sidetask.NewBuiltin(profile, mode, scale, seed)
	}
}

// Profile runs the task alone on a private device and measures it.
func Profile(factory HarnessFactory, opts Options) (Result, error) {
	opts.normalize()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "profiler-gpu"}) // the default 48 GiB
	ctr := container.NewRuntime(procs)

	h, err := factory(opts.Seed)
	if err != nil {
		return Result{}, fmt.Errorf("profiler: build harness: %w", err)
	}
	cont, err := h.Launch(ctr, container.Spec{Name: "profilee", Device: dev})
	if err != nil {
		return Result{}, fmt.Errorf("profiler: start container: %w", err)
	}

	var res Result
	deadline := opts.MaxRunTime

	// Phase 1: wait for CREATED.
	for eng.Now() < deadline && h.State() != sidetask.StateCreated {
		if exited, exitErr := cont.ExitInfo(); exited {
			return Result{}, fmt.Errorf("profiler: task exited during create: %w", exitErr)
		}
		eng.RunFor(10 * time.Millisecond)
	}
	if h.State() != sidetask.StateCreated {
		return Result{}, fmt.Errorf("profiler: create did not finish within %v", opts.MaxRunTime)
	}
	res.CreateTime = eng.Now()

	// Phase 2: InitSideTask → PAUSED; memory gets allocated here.
	initStart := eng.Now()
	h.Deliver(sidetask.Command{Transition: sidetask.TransitionInit})
	for eng.Now() < deadline && h.State() != sidetask.StatePaused {
		if exited, exitErr := cont.ExitInfo(); exited {
			return Result{}, fmt.Errorf("profiler: task exited during init: %w", exitErr)
		}
		eng.RunFor(10 * time.Millisecond)
	}
	if h.State() != sidetask.StatePaused {
		return Result{}, fmt.Errorf("profiler: init did not finish within %v", opts.MaxRunTime)
	}
	res.InitTime = eng.Now() - initStart

	// Phase 3: run with an effectively unbounded bubble and time Steps
	// steps (iterative), or a fixed slice (imperative: memory only).
	runStart := eng.Now()
	h.Deliver(sidetask.Command{Transition: sidetask.TransitionStart, BubbleEnd: deadline})
	if h.Mode() == sidetask.ModeIterative {
		for eng.Now() < deadline && int(h.Counters().Steps) < opts.Steps {
			eng.RunFor(10 * time.Millisecond)
		}
		c := h.Counters()
		if c.Steps == 0 {
			return Result{}, fmt.Errorf("profiler: no steps completed within %v", opts.MaxRunTime)
		}
		res.Steps = int(c.Steps)
		res.StepTime = (eng.Now() - runStart) / time.Duration(c.Steps)
	} else {
		eng.RunFor(2 * time.Second)
	}
	res.MemBytes = peakMem(cont)

	// Tear down.
	h.Deliver(sidetask.Command{Transition: sidetask.TransitionStop})
	eng.RunFor(time.Second)
	if cont.Alive() {
		cont.Kill()
		eng.RunFor(time.Second)
	}
	return res, nil
}

func peakMem(cont *container.Container) int64 {
	gpu := cont.GPU()
	if gpu == nil {
		return 0
	}
	return int64(gpu.MemTrace().Max(0, math.MaxInt64))
}
