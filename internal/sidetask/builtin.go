package sidetask

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"freeride/internal/graph"
	"freeride/internal/imageproc"
	"freeride/internal/model"
	"freeride/internal/nn"
)

// WorkScale controls how much *real* host computation the built-in tasks
// perform per step (the algorithms in internal/{graph,nn,imageproc}).
// Scale 0 skips real work (pure cost-model simulation, for long parameter
// sweeps); 1 is the default small-but-real configuration.
type WorkScale int

// Built-in work scales.
const (
	WorkNone  WorkScale = 0
	WorkSmall WorkScale = 1
)

// runAheadDepth is how many steps past the last result StepWork returned a
// WorkSmall built-in may compute on its own goroutine, given a spare core.
// On a two-core Xeon, the benchmark's real-work workload read a median
// wall_s of 0.080 at one step ahead, 0.069 at 4, 0.065 at 8, 0.064 at 16
// and 0.067 at 32 (reference seconds, three runs each); a task that ends
// wastes up to this many steps.
const runAheadDepth = 16

// builtinTask adapts one of the real algorithms in internal/{nn,graph,
// imageproc} to the iterative interface under its cost profile — the Go
// translation of the paper's Figure 6. The built-ins differ only in what
// CreateSideTask builds and what a step calls (see builtins).
//
// Under WorkSmall the arithmetic runs ahead of the simulation on the task's
// own goroutine (runAhead, bound once so that a step allocates nothing),
// which computes the steps StepWork has reserved and exits once none is
// left. next buffers their results in order; its capacity is the depth
// (runAheadDepth, or 1 without a spare core), which bounds the steps
// reserved, so a send never blocks. ahead reports that the next StepWork
// receives from next rather than computing inline.
type builtinTask struct {
	profile model.TaskProfile
	scale   WorkScale
	// build loads the real workload from one seed and returns its step.
	build func(seed int64) (step func() error, err error)
	// step is nil under WorkNone: pure cost-model simulation.
	step     func() error
	next     chan error
	runAhead func()
	ahead    bool
	// mu guards the handshake with the run-ahead goroutine: owed counts the
	// reserved steps it has not begun, running that it is alive and will
	// look at owed again before it exits, and withdrawn that a failed step
	// or StopSideTask has ended the run for good.
	mu        sync.Mutex
	owed      int
	running   bool
	withdrawn bool
}

var (
	_ Iterative = (*builtinTask)(nil)
	_ Stepper   = (*builtinTask)(nil)
)

// builtins is the constructor table: which profiles share an implementation,
// and what it builds. Each builder consumes exactly one seed.
var builtins = []struct {
	names []string
	build func(seed int64) (step func() error, err error)
}{
	// A real nn.Trainer with the ResNet/VGG cost profile: "load the dataset,
	// data loader, loss function and optimizer states in CPU memory" — the
	// real model and synthetic dataset are built here.
	{[]string{"resnet18", "resnet50", "vgg19"}, func(seed int64) (func() error, error) {
		trainer, err := nn.NewTrainer([]int{32, 64, 10}, 2048, 32, 0.005, seed)
		return func() error { _, err := trainer.TrainStep(); return err }, err
	}},
	// Real PageRank iterations on a synthetic power-law graph (the Orkut
	// stand-in).
	{[]string{"pagerank"}, func(seed int64) (func() error, error) {
		pr := graph.NewPageRank(graph.RMAT(graph.RMATConfig{Nodes: 1 << 10, EdgeFactor: 8, Seed: seed}), 0.85)
		return func() error { pr.Step(); return nil }, nil
	}},
	// Real SGD matrix factorization passes.
	{[]string{"graphsgd"}, func(seed int64) (func() error, error) {
		ratings := graph.SyntheticRatings(128, 128, 4096, 8, seed)
		mf := graph.NewSGDMF(graph.SGDMFConfig{Users: 128, Items: 128, K: 8, Seed: seed + 1}, ratings)
		return func() error { mf.Step(); return nil }, nil
	}},
	// Resizes and watermarks real synthetic images.
	{[]string{"image"}, func(seed int64) (func() error, error) {
		pipe := imageproc.NewPipeline(96, 64, 48, 32, seed)
		return func() error { _, err := pipe.Step(); return err }, nil
	}},
}

func (t *builtinTask) CreateSideTask(ctx *Ctx) (err error) {
	if t.scale != WorkNone {
		t.step, err = t.build(ctx.Rng.Int63())
		depth := runAheadDepth
		if runtime.GOMAXPROCS(0) == 1 {
			// No core to overlap on: every step computed ahead only delays
			// the dispatcher, and a task that ends wastes them all.
			depth = 1
		}
		t.next = make(chan error, depth)
		t.runAhead = t.runReserved
	}
	return err
}

func (t *builtinTask) InitSideTask(ctx *Ctx) error {
	// Move context into GPU memory.
	return ctx.GPU.AllocMem(t.profile.MemBytes)
}

func (t *builtinTask) RunNextStep(ctx *Ctx) error {
	ctx.HostWork(t.profile.HostOverhead)
	if err := t.StepWork(ctx); err != nil {
		return err
	}
	return ctx.ExecStepKernel()
}

// StepWork is the step's CPU-side work (Stepper). Its arithmetic runs up to
// D steps ahead of the simulation, off the event loop, where D is the
// capacity of next (runAheadDepth, or 1 without a spare core): the k-th call
// returns step k's result, received from the goroutine that computed it while
// earlier steps were being simulated (waiting only if it has not finished;
// the first call computes inline), and, when that result is nil, reserves
// steps up to k+D and starts the goroutine unless it is still running. The
// simulation cannot tell:
//   - a task's steps still run one at a time, in order, on the same state —
//     one goroutine at a time computes them, and a new one starts only after
//     its predecessor's last result — so every model, graph and image is
//     bit-identical;
//   - step k's error is returned by the k-th call, at the same simulated
//     instant, and a failed step begins no successor;
//   - the goroutine touches only the task's own real state, never the Ctx,
//     a component or the engine, so the engine keeps its one owner;
//   - a failed step and StopSideTask withdraw the steps not yet begun, for
//     good, so at most the one already begun finishes; a task that is
//     grace-killed or loses its worker leaves at most D steps computing into
//     next, which nobody reads. Either way the goroutine then exits, having
//     advanced only state nothing reads (the steps discard their outputs).
func (t *builtinTask) StepWork(*Ctx) error {
	if t.step == nil {
		return nil
	}
	var err error
	reserve := 1
	if t.ahead {
		err = <-t.next
	} else {
		err = t.step()
		reserve = cap(t.next)
	}
	t.ahead = err == nil
	if t.ahead {
		t.mu.Lock()
		if !t.withdrawn {
			t.owed += reserve
			if !t.running {
				t.running = true
				go t.runAhead()
			}
		}
		t.mu.Unlock()
	}
	return err
}

// runReserved computes the reserved steps in order and exits once none is
// left; a failed step withdraws the rest.
func (t *builtinTask) runReserved() {
	for {
		t.mu.Lock()
		if t.owed == 0 {
			t.running = false
			t.mu.Unlock()
			return
		}
		t.owed--
		t.mu.Unlock()
		err := t.step()
		if err != nil {
			t.withdraw()
		}
		t.next <- err
	}
}

// withdraw cancels the reserved steps the run-ahead has not begun, and every
// later reservation.
func (t *builtinTask) withdraw() {
	t.mu.Lock()
	t.owed = 0
	t.withdrawn = true
	t.mu.Unlock()
}

func (t *builtinTask) StopSideTask(ctx *Ctx) error {
	t.withdraw()
	ctx.GPU.FreeMem(t.profile.MemBytes)
	return nil
}

// imperativeAdapter wraps any Iterative into the imperative shape: one
// monolithic loop with no step-wise cooperation — the paper's fallback
// interface. Pausing relies entirely on SIGTSTP from the worker.
type imperativeAdapter struct {
	inner Iterative
}

var _ Imperative = (*imperativeAdapter)(nil)

func (a *imperativeAdapter) CreateSideTask(ctx *Ctx) error { return a.inner.CreateSideTask(ctx) }
func (a *imperativeAdapter) InitSideTask(ctx *Ctx) error   { return a.inner.InitSideTask(ctx) }

// RunGpuWorkload steps until stopped or killed.
func (a *imperativeAdapter) RunGpuWorkload(ctx *Ctx) error {
	for {
		start := ctx.Proc.Now()
		if err := a.inner.RunNextStep(ctx); err != nil {
			return err
		}
		ctx.h.stepDone(ctx.Proc.Now() - start)
	}
}

// NewBuiltin constructs a harness for one of the paper's six side tasks in
// the given mode. The profile may be batch-rescaled beforehand.
func NewBuiltin(profile model.TaskProfile, mode Mode, scale WorkScale, seed int64) (*Harness, error) {
	base := profile.Name
	if profile.BatchScalable {
		// Batch-suffixed profiles ("resnet18-b96") share the base impl.
		base, _, _ = cutBatchSuffix(profile.Name)
	}
	impl := &builtinTask{profile: profile, scale: scale}
	for _, b := range builtins {
		if slices.Contains(b.names, base) {
			impl.build = b.build
			break
		}
	}
	if impl.build == nil {
		return nil, fmt.Errorf("sidetask: no built-in implementation for %q", profile.Name)
	}
	switch mode {
	case ModeIterative:
		return NewIterativeHarness(profile.Name, profile, impl, seed), nil
	case ModeImperative:
		return NewImperativeHarness(profile.Name, profile, &imperativeAdapter{inner: impl}, seed), nil
	default:
		return nil, fmt.Errorf("sidetask: unknown mode %v", mode)
	}
}

func cutBatchSuffix(name string) (base string, batch string, found bool) {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '-' {
			if i+2 <= len(name) && name[i+1] == 'b' {
				return name[:i], name[i+2:], true
			}
			break
		}
	}
	return name, "", false
}
