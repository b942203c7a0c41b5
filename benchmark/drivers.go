package main

import (
	"fmt"
	"runtime"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/container"
	"freeride/internal/core"
	"freeride/internal/experiments"
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

// opCost is what one operation of a layer costs when the layer's public
// entry point is driven in isolation: host time, heap allocations, and the
// engine events it dispatches (the share model nets those out so a parent
// layer's self cost excludes its children).
type opCost struct {
	ns, allocs, events float64
	// rpcs is the manager RPCs one operation issues (bubble cycle only).
	rpcs float64
}

// net is the cost left after charging the op's engine events to simtime.
func (c opCost) net(dispatchNs float64) float64 {
	return max(0, c.ns-c.events*dispatchNs)
}

// driverRound is how long one timed round of a driver lasts; the tests
// shorten it.
var driverRound = 8 * time.Millisecond

const driverRounds = 5

// timeOp measures op in isolation. op(n) performs about n operations and
// returns how many it really did (an event-driven rig steps the engine n
// times and counts the layer operations that completed). The batch size is
// grown until one round lasts driverRound; the cost is the median of
// driverRounds rounds. eng, when non-nil, is the rig's engine.
func timeOp(eng *simtime.Virtual, op func(n int) int) opCost {
	n := 1
	for {
		start := time.Now()
		op(n)
		if time.Since(start) >= driverRound || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var (
		ns, allocs, events []float64
		m0, m1             runtime.MemStats
	)
	for r := 0; r < driverRounds; r++ {
		var e0 uint64
		if eng != nil {
			e0 = eng.Dispatched()
		}
		runtime.ReadMemStats(&m0)
		start := time.Now()
		done := op(n)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if done <= 0 {
			continue
		}
		ns = append(ns, float64(elapsed.Nanoseconds())/float64(done))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(done))
		if eng != nil {
			events = append(events, float64(eng.Dispatched()-e0)/float64(done))
		}
	}
	return opCost{ns: median(ns), allocs: median(allocs), events: median(events)}
}

// timeRuns is timeOp for a rig that runs to completion: every round builds
// one rig, drains it and hands back its engine; ops is the number of layer
// operations one run holds.
func timeRuns(ops float64, run func() (*simtime.Virtual, error)) (opCost, error) {
	var ns, events []float64
	for r := 0; r < driverRounds; r++ {
		start := time.Now()
		v, err := run()
		if err != nil {
			return opCost{}, err
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/ops)
		events = append(events, float64(v.Dispatched())/ops)
	}
	return opCost{ns: median(ns), events: median(events)}, nil
}

// each runs f n times.
func each(f func()) func(n int) int {
	return func(n int) int {
		for i := 0; i < n; i++ {
			f()
		}
		return n
	}
}

// steps dispatches n engine events; every event is one operation.
func steps(v *simtime.Virtual) func(n int) int {
	return func(n int) int {
		for i := 0; i < n; i++ {
			v.Step()
		}
		return n
	}
}

func nop() {}

// --- simtime -------------------------------------------------------------

func driveDispatch(pending int) (opCost, error) {
	v := simtime.NewVirtual()
	for i := 0; i < pending; i++ {
		v.Schedule(1000*time.Hour+time.Duration(i)*time.Millisecond, "pending", nop)
	}
	return timeOp(v, each(func() {
		v.ScheduleDetached(time.Microsecond, "bench", nop)
		v.Step()
	})), nil
}

// driveReschedule re-arms one owned timer and lets it fire.
func driveReschedule() (opCost, error) {
	v := simtime.NewVirtual()
	var t *simtime.Timer
	return timeOp(v, each(func() {
		t = v.Reschedule(t, time.Microsecond, "bench", nop)
		v.Step()
	})), nil
}

// driveCancel schedules a timer and cancels it before it fires.
func driveCancel() (opCost, error) {
	v := simtime.NewVirtual()
	return timeOp(v, each(func() {
		v.Schedule(time.Second, "bench", nop).Cancel()
	})), nil
}

// --- freerpc -------------------------------------------------------------

type echoParams struct {
	A int64 `json:"a"`
}

func rpcRig() (*simtime.Virtual, *freerpc.Peer) {
	v := simtime.NewVirtual()
	mux := freerpc.NewMux()
	freerpc.HandleFunc(mux, "Echo", func(p echoParams) (any, error) { return nil, nil })
	c1, c2 := freerpc.MemPipe(v, time.Microsecond)
	client := freerpc.NewPeer(v, c1, nil)
	freerpc.NewPeer(v, c2, mux)
	return v, client
}

func driveRPCGo(timeout time.Duration) (opCost, error) {
	v, client := rpcRig()
	boxed := any(echoParams{A: 1})
	return timeOp(v, each(func() {
		client.Go("Echo", boxed, timeout, nil)
		v.MustDrain(8)
	})), nil
}

func driveRPCNotify() (opCost, error) {
	v, client := rpcRig()
	boxed := any(echoParams{A: 1})
	return timeOp(v, each(func() {
		_ = client.Notify("Echo", boxed) // the in-memory pipe stays open
		v.MustDrain(4)
	})), nil
}

// --- simproc -------------------------------------------------------------

func driveParkResume() (opCost, error) {
	v := simtime.NewVirtual()
	procs := simproc.NewRuntime(v)
	procs.Spawn("sleeper", func(p *simproc.Process) error {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	steps(v)(16)
	return timeOp(v, steps(v)), nil
}

func driveInlineSleep() (opCost, error) {
	v := simtime.NewVirtual()
	procs := simproc.NewRuntime(v)
	procs.SpawnInline("ticker", func(p *simproc.Process) {
		var k func(any)
		k = func(any) { p.SleepThen(time.Microsecond, k) }
		p.SleepThen(time.Microsecond, k)
	})
	steps(v)(16)
	return timeOp(v, steps(v)), nil
}

// --- simgpu --------------------------------------------------------------

func gpuRig(policy simgpu.Policy, clients int) (*simtime.Virtual, *simproc.Runtime, *simgpu.Device, []*simgpu.Client, error) {
	v := simtime.NewVirtual()
	procs := simproc.NewRuntime(v)
	dev := simgpu.NewDevice(v, simgpu.DeviceConfig{Name: "bench-gpu", Policy: policy, NoTraces: true})
	var cs []*simgpu.Client
	for i := 0; i < clients; i++ {
		c, err := dev.NewClient(simgpu.ClientConfig{Name: fmt.Sprintf("bench%d", i)})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		cs = append(cs, c)
	}
	return v, procs, dev, cs, nil
}

// driveExec is one blocking kernel round trip on the goroutine shell.
func driveExec() (opCost, error) {
	v, procs, _, cs, err := gpuRig(simgpu.PolicyMPS, 1)
	if err != nil {
		return opCost{}, err
	}
	spec := &simgpu.KernelSpec{Name: "k", Duration: time.Microsecond, Demand: 0.5, Weight: 0.5}
	procs.Spawn("execer", func(p *simproc.Process) error {
		for {
			if err := cs[0].Exec(p, spec); err != nil {
				return err
			}
		}
	})
	steps(v)(16)
	return timeOp(v, steps(v)), nil
}

// driveExecLead is one host-lead launch + completion on the event loop:
// the fused side-task step without the harness around it.
func driveExecLead() (opCost, error) {
	v, procs, dev, cs, err := gpuRig(simgpu.PolicyMPS, 1)
	if err != nil {
		return opCost{}, err
	}
	spec := &simgpu.KernelSpec{Name: "k", Duration: 30 * time.Microsecond, Demand: 0.5, Weight: 0.5}
	procs.SpawnInline("leader", func(p *simproc.Process) {
		var k func(any)
		k = func(any) { cs[0].ExecLeadThen(p, spec, time.Microsecond, k) }
		k(nil)
	})
	steps(v)(16)
	k0 := dev.KernelsCompleted()
	c := timeOp(v, func(n int) int {
		before := dev.KernelsCompleted()
		steps(v)(n)
		return int(dev.KernelsCompleted() - before)
	})
	if dev.KernelsCompleted() == k0 {
		return opCost{}, fmt.Errorf("exec-lead rig completed no kernel")
	}
	return c, nil
}

// driveLaunchShared keeps two co-resident clients launching back to back,
// so every completion rebalances a shared device.
func driveLaunchShared(policy simgpu.Policy) (opCost, error) {
	v, _, dev, cs, err := gpuRig(policy, 2)
	if err != nil {
		return opCost{}, err
	}
	specs := []*simgpu.KernelSpec{
		{Name: "main", Duration: 37 * time.Microsecond, Demand: 1, Weight: 1},
		{Name: "side", Duration: 11 * time.Microsecond, Demand: 0.55, Weight: 0.3},
	}
	for i := range cs {
		c, spec := cs[i], specs[i]
		var relaunch func(error)
		relaunch = func(error) { _ = c.Launch(spec, relaunch) } // the client is never destroyed
		relaunch(nil)
	}
	steps(v)(16)
	return timeOp(v, func(n int) int {
		before := dev.KernelsCompleted()
		steps(v)(n)
		return int(dev.KernelsCompleted() - before)
	}), nil
}

// --- sidetask ------------------------------------------------------------

// stepRig runs one harness alone on a device, started into a bubble that
// never ends, and reports the cost of one completed step.
func driveStep(h *sidetask.Harness) (opCost, error) {
	v := simtime.NewVirtual()
	procs := simproc.NewRuntime(v)
	dev := simgpu.NewDevice(v, simgpu.DeviceConfig{Name: "bench-gpu", NoTraces: true})
	ctrs := container.NewRuntime(procs)
	h.BindEngine(v)
	spec := container.Spec{Name: "bench-task", Device: dev}
	var err error
	if h.CanInline() {
		_, err = ctrs.RunInline(spec, h.Start)
	} else {
		_, err = ctrs.Run(spec, h.Run)
	}
	if err != nil {
		return opCost{}, err
	}
	v.Schedule(0, "bench-init", func() {
		h.Deliver(sidetask.Command{Transition: sidetask.TransitionInit})
		h.Deliver(sidetask.Command{Transition: sidetask.TransitionStart, BubbleEnd: 1 << 62})
	})
	for i := 0; i < 64 && h.Counters().Steps == 0; i++ {
		v.Step()
	}
	if h.Counters().Steps == 0 {
		return opCost{}, fmt.Errorf("step rig: task never reached its first step (state %v)", h.State())
	}
	return timeOp(v, func(n int) int {
		before := h.Counters().Steps
		steps(v)(n)
		return int(h.Counters().Steps - before)
	}), nil
}

func driveBuiltinStep(p model.TaskProfile, scale sidetask.WorkScale) (opCost, error) {
	h, err := sidetask.NewBuiltin(p, sidetask.ModeIterative, scale, 1)
	if err != nil {
		return opCost{}, err
	}
	return driveStep(h)
}

func driveGoroutineStep() (opCost, error) {
	p := customProfile()
	return driveStep(sidetask.NewIterativeHarness("bench-custom", p, blockingTask{}, 1))
}

// --- core ----------------------------------------------------------------

// driveBubbleCycle is one manager and one worker over an in-memory link:
// AddBubble → start → pause. The bubble is shorter than a step, so the
// cycle holds the control-plane work and no side-task step.
func driveBubbleCycle() (opCost, error) {
	v := simtime.NewVirtual()
	procs := simproc.NewRuntime(v)
	dev := simgpu.NewDevice(v, simgpu.DeviceConfig{Name: "bench-gpu", MemBytes: model.ServerI.GPUMemBytes, NoTraces: true})
	mgr := core.NewManager(v, core.ManagerOptions{Tick: time.Millisecond, MemSlack: core.DefaultMemSlack, Seed: 1})
	w := core.NewWorker(v, dev, container.NewRuntime(procs), core.WorkerConfig{Name: "worker0"})
	wmux := freerpc.NewMux()
	w.RegisterOn(wmux)
	mgrEnd, wEnd := freerpc.MemPipe(v, 200*time.Microsecond)
	mgrPeer := freerpc.NewPeer(v, mgrEnd, mgr.Mux())
	wPeer := freerpc.NewPeer(v, wEnd, wmux)
	w.SetNotify(func(method string, params any) { _ = wPeer.Notify(method, params) })
	const mem = 20 * model.GiB
	mgr.AddWorker(w.Name(), 0, mem, mgrPeer)
	if _, err := mgr.SubmitAndPlace(core.TaskSpec{
		Name: "bench-resnet18", Profile: model.ResNet18, Mode: sidetask.ModeIterative, Seed: 1,
	}); err != nil {
		return opCost{}, err
	}
	mgr.Start()
	v.RunFor(5 * time.Second) // create + init
	cycle := func() {
		mgr.AddBubble(bubble.Bubble{Stage: 0, Type: bubble.TypeA, Start: v.Now(), Duration: 20 * time.Millisecond, MemAvailable: mem})
		v.RunFor(40 * time.Millisecond)
	}
	cycle()
	before := mgr.Stats()
	if w.Stats().Starts == 0 {
		return opCost{}, fmt.Errorf("bubble-cycle rig: the task was never started")
	}
	cycles := 0
	c := timeOp(v, func(n int) int {
		for i := 0; i < n; i++ {
			cycle()
		}
		cycles += n
		return n
	})
	after := mgr.Stats()
	if served := after.BubblesServed - before.BubblesServed; served != uint64(cycles) {
		return opCost{}, fmt.Errorf("bubble-cycle rig: %d of %d bubbles served", served, cycles)
	}
	c.rpcs = float64(after.RPCs-before.RPCs) / float64(cycles)
	return c, nil
}

// --- bubble, pipeline, serve, simfault -------------------------------------

// benchDevices is the four-GPU testbed of the trainer and server rigs.
func benchDevices(v *simtime.Virtual, traces bool) []*simgpu.Device {
	devices := make([]*simgpu.Device, 4)
	for i := range devices {
		devices[i] = simgpu.NewDevice(v, simgpu.DeviceConfig{
			Name: fmt.Sprintf("bench-gpu%d", i), MemBytes: model.ServerI.GPUMemBytes, NoTraces: !traces,
		})
	}
	return devices
}

// trainerRig runs a pipeline trainer alone to completion.
func trainerRig(epochs int, record bool) (*pipeline.Trainer, *simtime.Virtual, error) {
	v := simtime.NewVirtual()
	procs := simproc.NewRuntime(v)
	tr, err := pipeline.New(v, procs, benchDevices(v, record), pipeline.Config{
		Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: epochs, RecordOps: record,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := tr.Start(); err != nil {
		return nil, nil, err
	}
	v.Drain(50_000_000)
	if !tr.Done().IsSet() {
		return nil, nil, fmt.Errorf("trainer rig did not finish")
	}
	return tr, v, nil
}

// drivePipelineOp is the cost of one pipeline op with the trainer alone:
// stage machine, dependency latch and a solo kernel launch.
func drivePipelineOp() (opCost, error) {
	const epochs = 64
	ops, err := opsPerCycle(baseConfig(1, epochs))
	if err != nil {
		return opCost{}, err
	}
	return timeRuns(float64(ops*epochs), func() (*simtime.Virtual, error) {
		_, v, err := trainerRig(epochs, false)
		return v, err
	})
}

// driveServeRequest is the cost of one request with the server alone.
func driveServeRequest() (opCost, error) {
	const requests = 2048
	arrivals, err := serve.GenerateArrivals(serve.ArrivalConfig{Kind: serve.TracePoisson, Rate: 2, Requests: requests, Seed: 1})
	if err != nil {
		return opCost{}, err
	}
	return timeRuns(requests, func() (*simtime.Virtual, error) {
		v := simtime.NewVirtual()
		srv, err := serve.New(v, simproc.NewRuntime(v), benchDevices(v, false), serve.Config{
			Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, BatchSize: 8, SLO: 6 * time.Second, Arrivals: arrivals,
		})
		if err != nil {
			return nil, err
		}
		if err := srv.Start(); err != nil {
			return nil, err
		}
		v.Drain(50_000_000)
		if !srv.Done().IsSet() {
			return nil, fmt.Errorf("serve rig did not finish")
		}
		return v, nil
	})
}

// bubbleRig profiles a finished two-epoch trainer, as NewSession's offline
// pass does.
func bubbleRig() (*pipeline.Trainer, *bubble.Profile, error) {
	tr, _, err := trainerRig(2, true)
	if err != nil {
		return nil, nil, err
	}
	profile, err := bubble.ProfileTrainer(tr, 1, 0)
	return tr, profile, err
}

func driveBubbleProfile() (opCost, error) {
	tr, _, err := bubbleRig()
	if err != nil {
		return opCost{}, err
	}
	return timeOp(nil, each(func() {
		_, _ = bubble.ProfileTrainer(tr, 1, 0) // succeeded on this trainer in bubbleRig
	})), nil
}

func driveEmitEpoch() (opCost, error) {
	_, profile, err := bubbleRig()
	if err != nil {
		return opCost{}, err
	}
	rep := bubble.NewReporter(profile, 0)
	rep.SetSink(func(bubble.Bubble) {})
	return timeOp(nil, each(func() { rep.EmitEpoch(time.Second) })), nil
}

func driveBuildPlan(kind pipeline.ScheduleKind, virtual int) func() (opCost, error) {
	return func() (opCost, error) {
		if _, err := pipeline.BuildPlan(kind, 64, 128, virtual); err != nil {
			return opCost{}, err
		}
		return timeOp(nil, each(func() {
			_, _ = pipeline.BuildPlan(kind, 64, 128, virtual) // checked above
		})), nil
	}
}

// pure wraps a generator call that cannot fail.
func pure(f func()) func() (opCost, error) {
	return func() (opCost, error) { return timeOp(nil, each(f)), nil }
}

// driveTable2 is the wall time of experiments.RunTable2, seconds.
func driveTable2(parallelism int) (float64, error) {
	var secs []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		if _, err := experiments.RunTable2(experiments.Options{
			Epochs: 8, WorkScale: sidetask.WorkNone, Seed: 1, Parallelism: parallelism,
		}); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// driver is one isolated timing: key names the cost for the share model
// ("" when the model does not use it), ns and allocs the metrics that take
// the host time and the allocations of one operation.
type driver struct {
	key, ns, allocs string
	run             func() (opCost, error)
}

// arrivalsN is the trace length of the arrival-generator driver.
const arrivalsN = 4096

func allDrivers() []driver {
	horizon := 64 * model.NanoGPT3B.EpochSpan(4, 4)
	builtin := func(p model.TaskProfile, scale sidetask.WorkScale) func() (opCost, error) {
		return func() (opCost, error) { return driveBuiltinStep(p, scale) }
	}
	return []driver{
		{"dispatch", "simtime.dispatch_ns", "simtime.dispatch_allocs", func() (opCost, error) { return driveDispatch(0) }},
		{"", "simtime.dispatch_deep_ns", "", func() (opCost, error) { return driveDispatch(4096) }},
		{"", "simtime.reschedule_ns", "", driveReschedule},
		{"", "simtime.cancel_ns", "", driveCancel},
		{"go", "freerpc.go_ns", "freerpc.go_allocs", func() (opCost, error) { return driveRPCGo(0) }},
		{"", "freerpc.go_timeout_ns", "", func() (opCost, error) { return driveRPCGo(10 * time.Microsecond) }},
		{"notify", "freerpc.notify_ns", "", driveRPCNotify},
		{"", "simproc.park_resume_ns", "simproc.park_resume_allocs", driveParkResume},
		{"", "simproc.inline_sleep_ns", "", driveInlineSleep},
		{"exec", "simgpu.exec_ns", "simgpu.exec_allocs", driveExec},
		{"exec_lead", "simgpu.exec_lead_ns", "", driveExecLead},
		{"", "simgpu.launch_shared_ns", "", func() (opCost, error) { return driveLaunchShared(simgpu.PolicyMPS) }},
		{"", "simgpu.launch_timeslice_ns", "", func() (opCost, error) { return driveLaunchShared(simgpu.PolicyTimeSlice) }},
		{"step_inline", "sidetask.step_inline_ns", "", builtin(model.ResNet18, sidetask.WorkNone)},
		{"step_goroutine", "sidetask.step_goroutine_ns", "", driveGoroutineStep},
		{"bubble_cycle", "core.bubble_cycle_ns", "", driveBubbleCycle},
		{"", "bubble.profile_ns", "", driveBubbleProfile},
		{"", "bubble.emit_epoch_ns", "", driveEmitEpoch},
		{"", "bubble.estimator_observe_ns", "", func() (opCost, error) {
			est := bubble.NewEstimator(bubble.DetectorConfig{}, time.Second, 4)
			return timeOp(nil, each(func() { est.Observe(250 * time.Millisecond) })), nil
		}},
		{"", "bubble.generate_drift_ns", "", pure(func() { bubble.GenerateDrift(1, horizon, 8, nil, 4) })},
		{"", "simfault.generate_ns", "", pure(func() { simfault.Generate(1, horizon, 8, nil, 4) })},
		{"", "pipeline.build_plan_1f1b_ns", "", driveBuildPlan(pipeline.Schedule1F1B, 1)},
		{"", "pipeline.build_plan_gpipe_ns", "", driveBuildPlan(pipeline.ScheduleGPipe, 1)},
		{"", "pipeline.build_plan_interleaved_ns", "", driveBuildPlan(pipeline.ScheduleInterleaved, 2)},
		{"", "pipeline.build_plan_zero_bubble_ns", "", driveBuildPlan(pipeline.ScheduleZeroBubble, 1)},
		{"pipeline_op", "pipeline.op_ns", "", drivePipelineOp},
		{"", "serve.arrivals_ns_per_req", "", func() (opCost, error) {
			cfg := serve.ArrivalConfig{Kind: serve.TraceBursty, Rate: 2, Burstiness: 4, Requests: arrivalsN, Seed: 1}
			if _, err := serve.GenerateArrivals(cfg); err != nil {
				return opCost{}, err
			}
			c := timeOp(nil, each(func() { _, _ = serve.GenerateArrivals(cfg) })) // checked above
			c.ns /= arrivalsN
			return c, nil
		}},
		{"serve_request", "serve.request_ns", "", driveServeRequest},
		{"compute/resnet18", "nn.resnet18_step_ns", "", builtin(model.ResNet18, sidetask.WorkSmall)},
		{"compute/vgg19", "nn.vgg19_step_ns", "", builtin(model.VGG19, sidetask.WorkSmall)},
		{"compute/pagerank", "graph.pagerank_step_ns", "", builtin(model.PageRank, sidetask.WorkSmall)},
		{"compute/graphsgd", "graph.sgd_step_ns", "", builtin(model.GraphSGD, sidetask.WorkSmall)},
		{"compute/image", "imageproc.step_ns", "", builtin(model.Image, sidetask.WorkSmall)},
	}
}

// drivers times every layer's public entry points in isolation and fills
// their metrics into v. The results do not depend on the workload. A rig
// that fails to assemble is reported, never skipped silently.
func drivers(v map[string]float64) (cost map[string]opCost, errs []error) {
	cost = map[string]opCost{}
	for _, d := range allDrivers() {
		c, err := d.run()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", d.ns, err))
		}
		v[d.ns] = c.ns
		if d.allocs != "" {
			v[d.allocs] = c.allocs
		}
		if d.key != "" {
			cost[d.key] = c
		}
	}

	seq, err := driveTable2(1)
	if err != nil {
		errs = append(errs, fmt.Errorf("experiments.RunTable2: %w", err))
	}
	par, err := driveTable2(runtime.GOMAXPROCS(0))
	if err != nil {
		errs = append(errs, fmt.Errorf("experiments.RunTable2 (pool): %w", err))
	}
	v["experiments.table2_s"] = seq
	v["experiments.table2_par_s"] = par
	v["experiments.pool_speedup"] = ratio(seq, par)
	return cost, errs
}
