package experiments

import (
	"fmt"
	"strings"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/container"
	"freeride/internal/core"
	"freeride/internal/freerpc"
	"freeride/internal/model"
	"freeride/internal/sidetask"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
	"freeride/internal/trace"
)

// Figure8Series is one curve of Figure 8: a time series sampled over the
// scenario window.
type Figure8Series struct {
	Name   string
	Points []trace.Point
}

// Figure8Result reproduces paper Figure 8: the effect of FreeRide's GPU
// resource limits on a misbehaving side task.
//
//	(a) execution-time limit: the task keeps computing past the bubble;
//	    with the framework-enforced mechanism it is SIGKILLed after the
//	    grace period.
//	(b) memory limit: the task keeps allocating; with the MPS cap it is
//	    OOM-killed at 8 GB.
type Figure8Result struct {
	// Panel (a): SM occupancy of the side task with and without the limit.
	OccWithLimit    Figure8Series
	OccWithoutLimit Figure8Series
	BubbleEnd       time.Duration
	KilledAt        time.Duration
	GraceKills      uint64

	// Panel (b): task GPU memory with and without the 8 GB cap.
	MemWithLimit    Figure8Series
	MemWithoutLimit Figure8Series
	MemCap          int64
	OOMKilled       bool
}

// hogTask launches long kernels regardless of the bubble deadline (its
// profile lies about the step time, defeating the program-directed check).
type hogTask struct{ kernel time.Duration }

func (h hogTask) CreateSideTask(*sidetask.Ctx) error { return nil }
func (h hogTask) InitSideTask(ctx *sidetask.Ctx) error {
	return ctx.GPU.AllocMem(model.GiB)
}
func (h hogTask) StopSideTask(*sidetask.Ctx) error { return nil }
func (h hogTask) RunNextStep(ctx *sidetask.Ctx) error {
	return ctx.GPU.Exec(ctx.Proc, &simgpu.KernelSpec{
		Name: "hog", Duration: h.kernel, Demand: 0.9, Weight: 0.9,
	})
}

// leakTask allocates 512 MiB per step without bound.
type leakTask struct{}

func (leakTask) CreateSideTask(*sidetask.Ctx) error { return nil }
func (leakTask) InitSideTask(ctx *sidetask.Ctx) error {
	return ctx.GPU.AllocMem(model.GiB)
}
func (leakTask) StopSideTask(*sidetask.Ctx) error { return nil }
func (leakTask) RunNextStep(ctx *sidetask.Ctx) error {
	if err := ctx.GPU.AllocMem(model.GiB / 2); err != nil {
		return err
	}
	return ctx.GPU.Exec(ctx.Proc, &simgpu.KernelSpec{
		Name: "leak-step", Duration: 100 * time.Millisecond, Demand: 0.5,
	})
}

// fig8Rig is a single-GPU manager+worker assembly with scripted bubbles.
type fig8Rig struct {
	eng    *simtime.Virtual
	dev    *simgpu.Device
	worker *core.Worker
	mgr    *core.Manager
}

func newFig8Rig(enforce bool, factory core.HarnessFactory) *fig8Rig {
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu0", MemBytes: model.ServerI.GPUMemBytes})
	ctrs := container.NewRuntime(procs)
	mgr := core.NewManager(eng, core.ManagerOptions{MemSlack: core.DefaultMemSlack})
	w := core.NewWorker(eng, dev, ctrs, core.WorkerConfig{
		Name:               "worker0",
		Grace:              300 * time.Millisecond,
		Factory:            factory,
		DisableEnforcement: !enforce,
	})
	wmux := freerpc.NewMux()
	w.RegisterOn(wmux)
	mgrEnd, wEnd := freerpc.MemPipe(eng, 200*time.Microsecond)
	mgrPeer := freerpc.NewPeer(eng, mgrEnd, mgr.Mux())
	wPeer := freerpc.NewPeer(eng, wEnd, wmux)
	w.SetNotify(func(method string, params any) { _ = wPeer.Notify(method, params) })
	mgr.AddWorker("worker0", 0, 40*model.GiB, mgrPeer)
	return &fig8Rig{eng: eng, dev: dev, worker: w, mgr: mgr}
}

// RunFigure8 executes both limit scenarios, each with and without the
// corresponding mechanism. The four scenarios build fully private rigs
// (engine, device, manager, worker — nothing shared) and each writes only
// its own result fields, so they run as independent cells.
func RunFigure8(opts Options) (*Figure8Result, error) {
	opts.normalize()
	out := &Figure8Result{MemCap: 8 * model.GiB}
	type scenario struct {
		run     func(Options, bool, *Figure8Result) error
		limited bool
	}
	_, err := runCells(opts, []scenario{
		{fig8TimeLimit, true}, {fig8TimeLimit, false}, {fig8MemLimit, true}, {fig8MemLimit, false},
	}, func(scenario) string {
		return "fig8" // the scenarios name their panel in their own errors
	}, func(s scenario) (struct{}, error) {
		return struct{}{}, s.run(opts, s.limited, out)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fig8TimeLimit runs one Panel (a) scenario: a hog task that defeats the
// program-directed check, with or without the framework-enforced kill.
func fig8TimeLimit(opts Options, enforce bool, out *Figure8Result) error {
	hogFactory := func(spec core.TaskSpec) (*sidetask.Harness, error) {
		p := spec.Profile
		p.StepTime = time.Millisecond // defeats the program-directed check
		p.StepJitter = 0
		p.CreateTime = 100 * time.Millisecond
		p.InitTime = 50 * time.Millisecond
		return sidetask.NewIterativeHarness(spec.Name, p, hogTask{kernel: 10 * time.Second}, spec.Seed), nil
	}
	rig := newFig8Rig(enforce, hogFactory)
	spec := core.TaskSpec{Name: "hog", Profile: model.ResNet18, Mode: sidetask.ModeIterative, Seed: opts.Seed}
	if err := rig.mgr.Submit(spec); err != nil {
		return fmt.Errorf("fig8a submit: %w", err)
	}
	rig.mgr.Start()
	rig.eng.RunFor(time.Second) // create + init
	base := rig.eng.Now()
	bubbleEnd := base + 600*time.Millisecond
	rig.mgr.AddBubble(bubble.Bubble{Stage: 0, Type: bubble.TypeA, Start: base, Duration: 600 * time.Millisecond, MemAvailable: 40 * model.GiB})
	rig.eng.RunFor(4 * time.Second)

	if _, ok := rig.worker.Harness("hog"); !ok {
		return fmt.Errorf("fig8a: hog task missing")
	}
	series := Figure8Series{Name: "with limit", Points: sampleSeries(rig.dev.Occupancy(), base-200*time.Millisecond, base+4*time.Second, 50*time.Millisecond)}
	if enforce {
		out.OccWithLimit = series
		out.BubbleEnd = bubbleEnd
		out.GraceKills = rig.worker.Stats().GraceKills
		out.KilledAt = bubbleEnd + 300*time.Millisecond
	} else {
		series.Name = "without limit"
		out.OccWithoutLimit = series
	}
	return nil
}

// fig8MemLimit runs one Panel (b) scenario: a leaking task with or without
// the MPS memory cap.
func fig8MemLimit(opts Options, withCap bool, out *Figure8Result) error {
	leakFactory := func(spec core.TaskSpec) (*sidetask.Harness, error) {
		p := spec.Profile
		p.StepTime = 100 * time.Millisecond
		p.StepJitter = 0
		p.CreateTime = 100 * time.Millisecond
		p.InitTime = 50 * time.Millisecond
		return sidetask.NewIterativeHarness(spec.Name, p, leakTask{}, spec.Seed), nil
	}
	rig := newFig8Rig(true, leakFactory)
	profile := model.ResNet18
	if withCap {
		// The manager imposes limit = profiled mem + slack; craft the
		// profile so the cap lands at 8 GB.
		profile.MemBytes = 8*model.GiB - 256<<20
	} else {
		profile.MemBytes = model.GiB // limit exists but we report the uncapped growth
	}
	spec := core.TaskSpec{Name: "leaky", Profile: profile, Mode: sidetask.ModeIterative, Seed: opts.Seed}
	var cont *container.Container
	if withCap {
		if err := rig.mgr.Submit(spec); err != nil {
			return fmt.Errorf("fig8b submit: %w", err)
		}
	} else {
		// Without the MPS cap the task is deployed outside the manager
		// (a raw container with no memory limit).
		h, err := leakFactory(spec)
		if err != nil {
			return err
		}
		procs := simproc.NewRuntime(rig.eng)
		ctrs := container.NewRuntime(procs)
		c, err := h.Launch(ctrs, container.Spec{Name: "leaky-nolimit", Device: rig.dev})
		if err != nil {
			return err
		}
		cont = c
		rig.eng.Schedule(200*time.Millisecond, "kick", func() {
			h.Deliver(sidetask.Command{Transition: sidetask.TransitionInit})
			h.Deliver(sidetask.Command{Transition: sidetask.TransitionStart, BubbleEnd: 1 << 62})
		})
	}
	if withCap {
		rig.mgr.Start()
		rig.eng.RunFor(time.Second)
		base := rig.eng.Now()
		rig.mgr.AddBubble(bubble.Bubble{Stage: 0, Type: bubble.TypeA, Start: base, Duration: 10 * time.Second, MemAvailable: 40 * model.GiB})
	}
	rig.eng.RunFor(6 * time.Second)

	// With the cap, the managed container is the device's only tenant, so
	// the device series is its memory; without it, read the raw container's
	// client series.
	tr := rig.dev.MemTrace()
	if !withCap {
		tr = cont.GPU().MemTrace()
	}
	pts := sampleSeries(tr, 0, rig.eng.Now(), 100*time.Millisecond)
	if withCap {
		out.MemWithLimit = Figure8Series{Name: "with 8GB limit", Points: pts}
		out.OOMKilled = rig.dev.MemUsed() == 0
	} else {
		out.MemWithoutLimit = Figure8Series{Name: "without limit", Points: pts}
	}
	return nil
}

func sampleSeries(s *trace.Series, from, to, step time.Duration) []trace.Point {
	var out []trace.Point
	for t := from; t <= to; t += step {
		if t < 0 {
			continue
		}
		out = append(out, trace.Point{T: t, V: s.At(t)})
	}
	return out
}

// Render draws both panels as ASCII sparkline tables.
func (r *Figure8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8(a): framework-enforced time limit (bubble ends at %v; grace 300ms)\n", r.BubbleEnd)
	fmt.Fprintf(&b, "  with limit:    %s\n", sparkline(r.OccWithLimit.Points, 1.0))
	fmt.Fprintf(&b, "  without limit: %s\n", sparkline(r.OccWithoutLimit.Points, 1.0))
	fmt.Fprintf(&b, "  grace kills: %d (task terminated ~%v)\n\n", r.GraceKills, r.KilledAt)
	fmt.Fprintf(&b, "Figure 8(b): MPS memory limit (cap %.0f GB)\n", float64(r.MemCap)/float64(model.GiB))
	maxMem := float64(16 * model.GiB)
	fmt.Fprintf(&b, "  with limit:    %s\n", sparkline(r.MemWithLimit.Points, maxMem))
	fmt.Fprintf(&b, "  without limit: %s\n", sparkline(r.MemWithoutLimit.Points, maxMem))
	fmt.Fprintf(&b, "  OOM-killed with cap: %v\n", r.OOMKilled)
	return b.String()
}

var sparkChars = []rune(" ▁▂▃▄▅▆▇█")

func sparkline(pts []trace.Point, maxV float64) string {
	var b strings.Builder
	for _, p := range pts {
		idx := int(p.V / maxV * float64(len(sparkChars)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkChars) {
			idx = len(sparkChars) - 1
		}
		b.WriteRune(sparkChars[idx])
	}
	return b.String()
}
