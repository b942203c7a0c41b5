package main

import (
	"fmt"
	"time"

	"freeride"
	"freeride/internal/bubble"
	"freeride/internal/model"
	"freeride/internal/pipeline"
	"freeride/internal/serve"
	"freeride/internal/sidetask"
	"freeride/internal/simfault"
)

// sizes are the workload sizes. They are constants of the benchmark —
// identical on both commits of a comparison — chosen so one warm iteration
// of each workload is 0.17–0.28 s on the 2-core reference box; the tests
// shrink them so tier-1 stays fast.
type sizes struct {
	table2Epochs  int
	planesEpochs  int
	ladderStages  []int
	ladderEpochs  int
	deepStages    int
	deepEpochs    int
	serveRequests int
	customEpochs  int
	realEpochs    int
}

var fullSizes = sizes{
	table2Epochs:  36,
	planesEpochs:  64,
	ladderStages:  []int{16, 64},
	ladderEpochs:  4,
	deepStages:    64,
	deepEpochs:    6,
	serveRequests: 4000,
	customEpochs:  384,
	realEpochs:    3,
}

// submit is one Session.Submit call of a cell; stage -1 means
// SubmitEverywhere.
type submit struct {
	task  model.TaskProfile
	stage int
}

// cell is one freeride.Config plus its task list.
type cell struct {
	name    string
	cfg     freeride.Config
	submits []submit
	// custom, when set, is registered under submits[0].task.Name before
	// submitting.
	custom freeride.CustomTask
	// ref is the index of the MethodNone cell on the same arrival trace
	// (serving cells only, -1 otherwise): its p99 is the penalty base.
	ref int
}

type workload struct {
	name string
	// cells generates the workload's inputs; it is a pure function of the
	// seed and the sizes.
	cells func(seed int64, sz sizes) []cell
}

// workloads lists the workloads in report order. BENCHMARK.json says in one
// line why each exists; README.md says it at length.
var workloads = []workload{
	{"table2-grid", table2Cells},
	{"planes-sweep", planesCells},
	{"schedule-ladder", ladderCells},
	{"deep-harvest", deepCells},
	{"serving-traces", servingCells},
	{"custom-task", customCells},
	{"real-work", realCells},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// evalTasks are the six side tasks of paper Table 2 in row order (the
// order experiments.RunTable2 uses).
var evalTasks = []model.TaskProfile{
	model.ResNet18, model.ResNet50, model.VGG19,
	model.PageRank, model.GraphSGD, model.Image,
}

var table2Methods = []freeride.Method{
	freeride.MethodIterative, freeride.MethodImperative,
	freeride.MethodMPS, freeride.MethodNaive,
}

// mixedSubmits is the paper's mixed workload, placed as experiments.runMixed
// places it.
var mixedSubmits = []submit{
	{model.PageRank, 0}, {model.ResNet18, 1}, {model.Image, 2}, {model.VGG19, 3},
}

func everywhere(p model.TaskProfile) []submit { return []submit{{p, -1}} }

func baseConfig(seed int64, epochs int) freeride.Config {
	cfg := freeride.DefaultConfig()
	cfg.Epochs = epochs
	cfg.WorkScale = sidetask.WorkNone
	cfg.Seed = seed
	return cfg
}

func table2Cells(seed int64, sz sizes) []cell {
	var cells []cell
	add := func(method freeride.Method, name string, submits []submit) {
		cfg := baseConfig(seed, sz.table2Epochs)
		cfg.Method = method
		cells = append(cells, cell{name: fmt.Sprintf("%v/%s", method, name), cfg: cfg, submits: submits, ref: -1})
	}
	for _, method := range table2Methods {
		for _, task := range evalTasks {
			add(method, task.Name, everywhere(task))
		}
		add(method, "mixed", mixedSubmits)
	}
	return cells
}

// planesRestarts lifts the per-task recovery budget above the largest
// event count of the sweep, so a task hit by every fault of its cell is
// restarted, never parked: the workload must run without a failed task.
const planesRestarts = 16

// jitterShare is the part of the horizon a seeded event may move within.
// Events uniform over the whole run make the harvest of a ten-minute cell
// depend on when its worker happened to die, and the exact metrics then
// vary by several percent from seed to seed. So the seed draws each event
// from the public generator over horizon/jitterShare, and the benchmark
// anchors it on a fixed skeleton: slot i of n lands at (i+1)/(n+1) of the
// horizon plus the drawn offset, on target i mod targets. The seed still
// moves every time, window and extra latency; the amount of work does not
// swing with it.
const jitterShare = 32

// anchoredFaults builds an n-event schedule, slot i of kind
// kinds[i mod len(kinds)].
func anchoredFaults(seed int64, horizon time.Duration, n int, kinds []simfault.Kind, targets int) *simfault.Schedule {
	s := &simfault.Schedule{Seed: seed}
	for i := 0; i < n; i++ {
		ev := simfault.Generate(seed+int64(i), horizon/jitterShare, 1,
			kinds[i%len(kinds):i%len(kinds)+1], targets).Events[0]
		ev.At += time.Duration(i+1) * horizon / time.Duration(n+1)
		ev.Worker = i % targets
		s.Events = append(s.Events, ev)
	}
	return s
}

// driftStage is the stage each drift kind targets, as in the drift sweep of
// internal/experiments: the home bubbles shrink while another stage grows.
var driftStage = map[bubble.DriftKind]int{
	bubble.DriftFreeze: 2, bubble.DriftRebalance: 1, bubble.DriftStraggler: 1,
}

// anchoredDrift builds an n-event drift schedule on the same skeleton;
// slot i has magnitude i+1, and a straggler lasts a sixth of the horizon
// plus its drawn window.
func anchoredDrift(seed int64, horizon time.Duration, n int, kinds []bubble.DriftKind, stages int) *bubble.DriftSchedule {
	s := &bubble.DriftSchedule{Seed: seed}
	for i := 0; i < n; i++ {
		ev := bubble.GenerateDrift(seed+int64(i), horizon/jitterShare, 1,
			kinds[i%len(kinds):i%len(kinds)+1], stages).Events[0]
		ev.At += time.Duration(i+1) * horizon / time.Duration(n+1)
		ev.Stage = driftStage[ev.Kind]
		ev.Magnitude = float64(i + 1)
		if ev.Kind == bubble.DriftStraggler {
			ev.Window += horizon / 6
		}
		s.Events = append(s.Events, ev)
	}
	return s
}

func planesCells(seed int64, sz sizes) []cell {
	base := baseConfig(seed, sz.planesEpochs)
	base.Method = freeride.MethodIterative
	base.MaxRestarts = planesRestarts
	// The fault and drift horizon comes from the closed form, not from a
	// run of the program under test.
	horizon := time.Duration(sz.planesEpochs) *
		base.LLM.EpochSpanSched(base.Schedule, base.Stages, base.MicroBatches, 1)

	var cells []cell
	for ki, kind := range simfault.AllKinds() {
		// A crash, a severed link or a dropped-RPC window longer than the
		// lease takes a worker out for good. Aiming those at the first two
		// workers keeps two eligible peers alive, so recovery always has
		// somewhere to re-place a task.
		targets := base.Stages
		switch kind {
		case simfault.KindCrashWorker, simfault.KindSeverLink, simfault.KindDropRPC:
			targets = 2
		}
		for _, n := range []int{2, 8} {
			cfg := base
			cfg.Faults = anchoredFaults(seed*1000+int64(ki)*100+int64(n)*10, horizon, n,
				[]simfault.Kind{kind}, targets)
			cells = append(cells, cell{
				name: fmt.Sprintf("fault/%v/%d", kind, n), cfg: cfg,
				submits: everywhere(model.ResNet18), ref: -1,
			})
		}
	}
	detectors := []struct {
		name string
		cfg  bubble.DetectorConfig
	}{{"fast", bubble.FastDetector()}, {"slow", bubble.SlowDetector()}}
	for ki, kind := range bubble.AllDriftKinds() {
		for di, det := range detectors {
			cfg := base
			cfg.Drift = anchoredDrift(seed*1000+700+int64(ki)*20+int64(di)*10, horizon, 2,
				[]bubble.DriftKind{kind}, base.Stages)
			d := det.cfg
			cfg.Replan = &d
			cells = append(cells, cell{
				name: fmt.Sprintf("drift/%v/%s", kind, det.name), cfg: cfg,
				submits: everywhere(model.ResNet18), ref: -1,
			})
		}
	}
	{
		cfg := base
		cfg.Faults = anchoredFaults(seed*1000+900, horizon, 4, []simfault.Kind{
			simfault.KindDelayRPC, simfault.KindFailKernel, simfault.KindWedgeTask, simfault.KindCrashWorker,
		}, base.Stages)
		cfg.Drift = anchoredDrift(seed*1000+950, horizon, 2,
			[]bubble.DriftKind{bubble.DriftFreeze, bubble.DriftStraggler}, base.Stages)
		cfg.Replan = &bubble.DetectorConfig{}
		cells = append(cells, cell{
			name: "mixed/faults+drift+replan", cfg: cfg,
			submits: everywhere(model.ResNet18), ref: -1,
		})
	}
	for _, sched := range []pipeline.ScheduleKind{
		pipeline.ScheduleGPipe, pipeline.ScheduleInterleaved, pipeline.ScheduleZeroBubble,
	} {
		cfg := base
		cfg.MaxRestarts = 0
		cfg.Schedule = sched
		cells = append(cells, cell{
			name: fmt.Sprintf("schedule/%v", sched), cfg: cfg,
			submits: everywhere(model.ResNet18), ref: -1,
		})
	}
	return cells
}

// scaledLLM shrinks the 3.6B preset's per-stage memory for a deep pipeline:
// weights by 4/S (the same model cut into more stages) and activations by
// 4/M (the same global batch cut into more micro-batches), so the
// hold-all-M schedules still fit the device. The name is unique per shape
// because the session's profile and baseline memos key on it.
func scaledLLM(tag string, stages, microBatches int) model.LLM {
	m := model.NanoGPT3B
	m.Name = fmt.Sprintf("%s-3.6b-s%d-m%d", tag, stages, microBatches)
	m.WeightMemPerStage = m.WeightMemPerStage * 4 / int64(stages)
	m.ActMemPerMB = m.ActMemPerMB * 4 / int64(microBatches)
	return m
}

func ladderCells(seed int64, sz sizes) []cell {
	var cells []cell
	for _, sched := range model.AllSchedules() {
		for _, s := range sz.ladderStages {
			cfg := baseConfig(seed, sz.ladderEpochs)
			cfg.Method = freeride.MethodNone
			cfg.Schedule = sched
			cfg.Stages = s
			cfg.MicroBatches = 2 * s
			cfg.LLM = scaledLLM("ladder", s, 2*s)
			cells = append(cells, cell{
				name: fmt.Sprintf("%v/S%d", sched, s), cfg: cfg, ref: -1,
			})
		}
	}
	return cells
}

func deepCells(seed int64, sz sizes) []cell {
	cfg := baseConfig(seed, sz.deepEpochs)
	cfg.Method = freeride.MethodIterative
	cfg.Stages = sz.deepStages
	cfg.MicroBatches = sz.deepStages
	cfg.LLM = scaledLLM("deep", sz.deepStages, sz.deepStages)
	return []cell{{
		name: fmt.Sprintf("1f1b/S%d", sz.deepStages), cfg: cfg,
		submits: everywhere(model.ResNet18), ref: -1,
	}}
}

func servingCells(seed int64, sz sizes) []cell {
	// The bursty trace runs at burstiness 1: at 4 its makespan over a few
	// thousand requests swings by 12% from seed to seed, and every metric
	// of the workload with it.
	traces := []struct {
		kind  serve.TraceKind
		burst float64
	}{{freeride.TracePoisson, 1}, {freeride.TraceDiurnal, 2}, {freeride.TraceBursty, 1}}
	var cells []cell
	for _, tr := range traces {
		ref := len(cells)
		for _, arm := range []struct {
			name   string
			method freeride.Method
			guard  float64
		}{{"none", freeride.MethodNone, 0}, {"guard0", freeride.MethodIterative, 0}, {"guard1", freeride.MethodIterative, 1}} {
			cfg := baseConfig(seed, 1)
			cfg.Method = arm.method
			cfg.Serving = &freeride.ServingConfig{
				Trace: tr.kind, Burstiness: tr.burst,
				Requests: sz.serveRequests, Guard: arm.guard,
			}
			c := cell{name: fmt.Sprintf("%v/%s", tr.kind, arm.name), cfg: cfg, ref: -1}
			if arm.method != freeride.MethodNone {
				c.submits = everywhere(model.ResNet18)
				c.ref = ref
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// blockingTask is the benchmark's user-defined side task: the four
// functions of the iterative interface with ResNet18's cost profile and no
// host computation. It deliberately does not implement sidetask.Stepper, so
// the harness cannot inline it and every step runs on the goroutine shell.
type blockingTask struct{}

func (blockingTask) CreateSideTask(*sidetask.Ctx) error { return nil }

func (blockingTask) InitSideTask(ctx *sidetask.Ctx) error {
	return ctx.GPU.AllocMem(ctx.Profile.MemBytes)
}

func (blockingTask) RunNextStep(ctx *sidetask.Ctx) error {
	ctx.HostWork(ctx.Profile.HostOverhead)
	return ctx.ExecStepKernel()
}

func (blockingTask) StopSideTask(ctx *sidetask.Ctx) error {
	ctx.GPU.FreeMem(ctx.Profile.MemBytes)
	return nil
}

func customProfile() model.TaskProfile {
	p := model.ResNet18
	p.Name = "bench-custom"
	// Batch-suffix handling belongs to the built-in tasks.
	p.BatchScalable = false
	return p
}

func customCells(seed int64, sz sizes) []cell {
	cfg := baseConfig(seed, sz.customEpochs)
	cfg.Method = freeride.MethodIterative
	return []cell{{
		name: "custom/resnet18-profile", cfg: cfg,
		submits: everywhere(customProfile()),
		custom:  func(int64) sidetask.Iterative { return blockingTask{} },
		ref:     -1,
	}}
}

func realCells(seed int64, sz sizes) []cell {
	cfg := baseConfig(seed, sz.realEpochs)
	cfg.Method = freeride.MethodIterative
	cfg.WorkScale = sidetask.WorkSmall
	return []cell{
		{name: "worksmall/mixed", cfg: cfg, submits: mixedSubmits, ref: -1},
		{name: "worksmall/resnet18", cfg: cfg, submits: everywhere(model.ResNet18), ref: -1},
	}
}
