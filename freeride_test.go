package freeride_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"freeride"
	"freeride/internal/bubble"
	"freeride/internal/freerpc"
	"freeride/internal/model"
	"freeride/internal/serve"
	"freeride/internal/sidetask"
	"freeride/internal/simfault"
	"freeride/internal/simgpu"
	"freeride/internal/simtime"
)

func fastCfg(method freeride.Method) freeride.Config {
	cfg := freeride.DefaultConfig()
	cfg.Epochs = 6
	cfg.Method = method
	cfg.WorkScale = sidetask.WorkNone
	return cfg
}

func TestBaselineTrainTimeMatchesAnalyticSpan(t *testing.T) {
	cfg := fastCfg(freeride.MethodNone)
	tNo, err := freeride.BaselineTrainTime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analytic := time.Duration(cfg.Epochs) * model.NanoGPT3B.EpochSpan(4, 4)
	// Communication latency adds a little per epoch.
	if tNo < analytic || tNo > analytic+time.Duration(cfg.Epochs)*100*time.Millisecond {
		t.Fatalf("T_no = %v, want slightly above %v", tNo, analytic)
	}
}

// TestOnlyProfileSessionRecords pins the one recording seam: the offline
// profiling session records the op log and the GPU series, and a measurement
// session built from the same config records neither.
func TestOnlyProfileSessionRecords(t *testing.T) {
	cfg := fastCfg(freeride.MethodIterative)
	prof, err := freeride.ProfileSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if starts, _ := prof.Trainer.CycleTimes(); len(starts) != 2 || prof.Manager != nil {
		t.Fatalf("profile session ran %d epochs (manager %v), want 2 epochs of training alone", len(starts), prof.Manager != nil)
	}
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.Stages; s++ {
		recorded := func(x *freeride.Session) []int {
			return []int{
				len(x.Trainer.OpLog(s)),
				len(x.Devices[s].Occupancy().Points()),
				len(x.Devices[s].MemTrace().Points()),
				len(x.Trainer.Client(s).OccTrace().Points()),
				len(x.Trainer.Client(s).MemTrace().Points()),
			}
		}
		for i, n := range recorded(prof) {
			if n == 0 {
				t.Errorf("stage %d: profile session left recording %d empty", s, i)
			}
		}
		for i, n := range recorded(sess) {
			if n != 0 {
				t.Errorf("stage %d: measurement session recorded %d entries in recording %d", s, n, i)
			}
		}
	}
}

func TestSessionIterativeEndToEnd(t *testing.T) {
	cfg := fastCfg(freeride.MethodIterative)
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sess.SubmitEverywhere(model.ResNet18)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("placed on %d workers, want 4", n)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps() == 0 {
		t.Fatal("no side-task steps completed")
	}
	tNo, err := freeride.BaselineTrainTime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.CostReport(tNo)
	if rep.I < 0 || rep.I > 0.03 {
		t.Fatalf("I = %.4f, want ~0.01", rep.I)
	}
	if rep.S <= 0 {
		t.Fatalf("S = %.4f, want positive", rep.S)
	}
	// Every eligible worker contributed.
	for _, tw := range res.Tasks {
		if tw.Steps == 0 {
			t.Errorf("task %s on worker %d ran no steps", tw.Name, tw.Worker)
		}
	}
	// Manager served bubbles.
	if res.ManagerStats.BubblesServed == 0 {
		t.Fatal("manager served no bubbles")
	}
}

func TestSessionDeterministicAcrossRuns(t *testing.T) {
	run := func() (time.Duration, uint64) {
		cfg := fastCfg(freeride.MethodIterative)
		sess, err := freeride.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.SubmitEverywhere(model.PageRank); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TrainTime, res.TotalSteps()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, s1, t2, s2)
	}
}

func TestSessionSeedChangesOutcome(t *testing.T) {
	run := func(seed int64) uint64 {
		cfg := fastCfg(freeride.MethodIterative)
		cfg.Seed = seed
		sess, err := freeride.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.SubmitEverywhere(model.ResNet18); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalSteps()
	}
	if run(1) == run(99) {
		t.Log("same step count across seeds (possible but unlikely); jitter may be inert")
	}
}

func TestEligibleStagesMatchMemoryLayout(t *testing.T) {
	cfg := fastCfg(freeride.MethodIterative)
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		task model.TaskProfile
		want int
	}{
		{model.ResNet18, 4},
		{model.PageRank, 4},
		{model.ResNet50, 3},
		{model.GraphSGD, 3},
		{model.VGG19, 2},
		{model.Image, 2},
	}
	for _, tc := range tests {
		if got := len(sess.EligibleStages(tc.task)); got != tc.want {
			t.Errorf("%s eligible stages = %d, want %d", tc.task.Name, got, tc.want)
		}
	}
}

func TestSessionRejectsDoubleRun(t *testing.T) {
	cfg := fastCfg(freeride.MethodNone)
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestRunRefusesSessionsOnTheCallersEngine: Run drives a session's own
// virtual engine. A node or manager session lives on its caller's engine, so
// Run returns an error before anything starts.
func TestRunRefusesSessionsOnTheCallersEngine(t *testing.T) {
	cfg := fastCfg(freeride.MethodNone)
	node, err := freeride.NewNodeSession(cfg, simtime.NewVirtual(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Run(); err == nil {
		t.Fatal("Run on a node session returned no error")
	}
	for i, d := range node.Devices {
		if used := d.MemUsed(); used != 0 {
			t.Fatalf("stage %d holds %d bytes: Run started the trainer", i, used)
		}
	}
	if starts, _ := node.Trainer.CycleTimes(); len(starts) != 0 {
		t.Fatalf("the trainer began %d cycles", len(starts))
	}
	mgr, err := freeride.NewManagerSession(cfg, simtime.NewVirtual(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Run(); err == nil {
		t.Fatal("Run on a manager session returned no error")
	}
}

// TestSplitSessionsRefuseFaults: the fault plane hooks both ends of every
// manager↔worker link, so a node or manager session alone refuses a fault
// schedule instead of dropping it or binding half a hook.
func TestSplitSessionsRefuseFaults(t *testing.T) {
	cfg := fastCfg(freeride.MethodIterative)
	cfg.Faults = &simfault.Schedule{}
	eng := simtime.NewVirtual()
	if _, err := freeride.NewNodeSession(cfg, eng, pipeLinks{eng}); err == nil {
		t.Error("NewNodeSession accepted a fault schedule")
	}
	eng = simtime.NewVirtual()
	if _, err := freeride.NewManagerSession(cfg, eng, pipeLinks{eng}); err == nil {
		t.Error("NewManagerSession accepted a fault schedule")
	}
}

// pipeLinks makes both ends of every link in memory on eng.
type pipeLinks struct{ eng *simtime.Virtual }

func (l pipeLinks) Link(_ int, mgr, far *freerpc.Mux) (*freerpc.Peer, *freerpc.Peer, error) {
	a, b := freerpc.MemPipe(l.eng, 0)
	return freerpc.NewPeer(l.eng, a, mgr), freerpc.NewPeer(l.eng, b, far), nil
}

func TestMethodNoneRejectsTasks(t *testing.T) {
	sess, err := freeride.NewSession(fastCfg(freeride.MethodNone))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(model.ResNet18, 0); err == nil {
		t.Fatal("MethodNone accepted a side task")
	}
}

func TestGPipeScheduleSession(t *testing.T) {
	cfg := fastCfg(freeride.MethodIterative)
	cfg.Schedule = 2 // pipeline.ScheduleGPipe
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.SubmitEverywhere(model.ResNet18); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	// GPipe has more bubble time than 1F1B: more steps should fit.
	if res.TotalSteps() == 0 {
		t.Fatal("no steps under GPipe")
	}
}

func TestOverheadOrderingAcrossMethods(t *testing.T) {
	// The paper's central comparison: I(iterative) <= I(imperative) <<
	// I(MPS-for-SGD) and naive in between; savings positive only for
	// FreeRide.
	measure := func(m freeride.Method, task model.TaskProfile) (float64, float64) {
		cfg := fastCfg(m)
		sess, err := freeride.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.SubmitEverywhere(task); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		tNo, _ := freeride.BaselineTrainTime(cfg)
		rep := res.CostReport(tNo)
		return rep.I, rep.S
	}
	iterI, iterS := measure(freeride.MethodIterative, model.GraphSGD)
	impI, _ := measure(freeride.MethodImperative, model.GraphSGD)
	mpsI, mpsS := measure(freeride.MethodMPS, model.GraphSGD)
	naiveI, _ := measure(freeride.MethodNaive, model.GraphSGD)
	if !(iterI < impI && impI < naiveI && naiveI < mpsI) {
		t.Fatalf("overhead ordering broken: iter %.3f imp %.3f naive %.3f mps %.3f",
			iterI, impI, naiveI, mpsI)
	}
	if iterS <= 0 || mpsS >= 0 {
		t.Fatalf("savings signs wrong: iter %.3f mps %.3f", iterS, mpsS)
	}
}

func TestSubmitRejectedWhenNoMemoryFits(t *testing.T) {
	cfg := fastCfg(freeride.MethodIterative)
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	huge := model.VGG19
	huge.Name = "vgg19-huge"
	huge.MemBytes = 40 * model.GiB
	err = sess.Submit(huge, 0)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("Submit = %v, want rejection", err)
	}
}

func TestMethodStrings(t *testing.T) {
	for m, want := range map[freeride.Method]string{
		freeride.MethodNone:       "none",
		freeride.MethodIterative:  "freeride-iterative",
		freeride.MethodImperative: "freeride-imperative",
		freeride.MethodMPS:        "mps",
		freeride.MethodNaive:      "naive",
	} {
		if m.String() != want {
			t.Errorf("Method(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestWorkScaleSmallRunsRealAlgorithms(t *testing.T) {
	cfg := fastCfg(freeride.MethodIterative)
	cfg.Epochs = 3
	cfg.WorkScale = sidetask.WorkSmall
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.SubmitEverywhere(model.PageRank); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps() == 0 {
		t.Fatal("no steps with real work enabled")
	}
}

func TestErrorsAreErrorsNotPanics(t *testing.T) {
	// Invalid config surfaces as error.
	cfg := freeride.DefaultConfig()
	cfg.RPCLatency = -1
	if _, err := freeride.NewSession(cfg); err == nil {
		t.Fatal("negative RPC latency accepted")
	}
	var sentinel error = errors.New("x")
	_ = sentinel
}

// countingTask is a minimal custom iterative task for the RegisterCustom API.
type countingTask struct{ hits *int }

func (c *countingTask) CreateSideTask(ctx *sidetask.Ctx) error { return nil }
func (c *countingTask) InitSideTask(ctx *sidetask.Ctx) error {
	return ctx.GPU.AllocMem(ctx.Profile.MemBytes)
}
func (c *countingTask) StopSideTask(ctx *sidetask.Ctx) error { return nil }
func (c *countingTask) RunNextStep(ctx *sidetask.Ctx) error {
	*c.hits++
	return ctx.ExecStepKernel()
}

func TestRegisterCustomTaskEndToEnd(t *testing.T) {
	cfg := fastCfg(freeride.MethodIterative)
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	profile := model.TaskProfile{
		Name:          "custom-counter",
		StepTime:      10 * time.Millisecond,
		MemBytes:      model.GiB,
		Demand:        0.4,
		Weight:        0.2,
		HostOverhead:  time.Millisecond,
		CreateTime:    50 * time.Millisecond,
		InitTime:      20 * time.Millisecond,
		SpeedServerII: 0.5,
		SpeedCPU:      0.05,
	}
	hits := 0
	if err := sess.RegisterCustom(profile, func(seed int64) sidetask.Iterative {
		return &countingTask{hits: &hits}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sess.RegisterCustom(profile, func(int64) sidetask.Iterative { return nil }); err == nil {
		t.Fatal("duplicate custom registration accepted")
	}
	n, err := sess.SubmitEverywhere(profile)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("custom task placed on %d workers, want 4", n)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps() == 0 || hits == 0 {
		t.Fatalf("custom task did not run: steps=%d hits=%d", res.TotalSteps(), hits)
	}
	if uint64(hits) < res.TotalSteps() {
		t.Fatalf("hits %d < counted steps %d", hits, res.TotalSteps())
	}
}

func TestRegisterCustomValidation(t *testing.T) {
	sess, err := freeride.NewSession(fastCfg(freeride.MethodIterative))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RegisterCustom(model.TaskProfile{}, func(int64) sidetask.Iterative { return nil }); err == nil {
		t.Fatal("empty profile name accepted")
	}
	if err := sess.RegisterCustom(model.TaskProfile{Name: "x"}, nil); err == nil {
		t.Fatal("nil constructor accepted")
	}
	bad := model.ResNet18
	bad.Name, bad.Demand = "no-demand", math.NaN()
	if err := sess.RegisterCustom(bad, func(int64) sidetask.Iterative { return &countingTask{hits: new(int)} }); err == nil {
		t.Fatal("custom task with a NaN demand accepted")
	}
}

// TestSubmitRefusesMalformedProfiles pins that Submit validates a profile
// under every method that takes side tasks, the baselines included, which
// never reach the manager: a zero step with no host overhead would run a step
// loop that never lets the clock move.
func TestSubmitRefusesMalformedProfiles(t *testing.T) {
	stalled := model.ResNet18
	stalled.StepTime, stalled.HostOverhead = 0, 0
	for _, method := range []freeride.Method{freeride.MethodIterative, freeride.MethodImperative, freeride.MethodMPS, freeride.MethodNaive} {
		sess, err := freeride.NewSession(fastCfg(method))
		if err != nil {
			t.Fatal(err)
		}
		if n, err := sess.SubmitEverywhere(stalled); err == nil {
			t.Errorf("%v: a zero-step profile was placed on %d workers", method, n)
		}
		if err := sess.Submit(stalled, 0); err == nil {
			t.Errorf("%v: Submit accepted a zero-step profile", method)
		}
	}
}

// TestDriftResizeLeavesTrainingAlone pins that drift reshapes only the
// reported bubble trace: a resize event scales the reports, and the training
// timeline stays bit-identical to the unarmed run's.
func TestDriftResizeLeavesTrainingAlone(t *testing.T) {
	run := func(cfg freeride.Config) time.Duration {
		sess, err := freeride.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TrainTime
	}
	base := fastCfg(freeride.MethodNone)
	scaled := base
	scaled.Drift = &bubble.DriftSchedule{Seed: 1, Events: []bubble.DriftEvent{{
		At: 10 * time.Second, Kind: bubble.DriftResize, Magnitude: 1,
	}}}
	if plain, got := run(base), run(scaled); got != plain {
		t.Fatalf("resize drift changed training time: %v vs %v", got, plain)
	}
}

// TestNewSessionRefusesMalformedDrift pins the drift plane's front door: an
// event the drifter cannot evaluate is refused before the session is built,
// not turned into a NaN-scaled bubble or a silent no-op. DriftResize ignores
// its Stage, so an out-of-range one is accepted there.
func TestNewSessionRefusesMalformedDrift(t *testing.T) {
	ev := func(kind bubble.DriftKind, stage int, mag float64, window time.Duration) bubble.DriftEvent {
		return bubble.DriftEvent{At: time.Second, Kind: kind, Stage: stage, Magnitude: mag, Window: window}
	}
	cases := []struct {
		name string
		ev   bubble.DriftEvent
		ok   bool
	}{
		{"kind 0", ev(0, 1, 1, 0), false},
		{"kind 99", ev(99, 1, 1, 0), false},
		{"NaN magnitude", ev(bubble.DriftResize, 0, math.NaN(), 0), false},
		{"+Inf magnitude", ev(bubble.DriftFreeze, 1, math.Inf(1), 0), false},
		{"-Inf magnitude", ev(bubble.DriftStraggler, 1, math.Inf(-1), time.Second), false},
		{"negative window", ev(bubble.DriftStraggler, 1, 1, -time.Second), false},
		{"freeze stage -1", ev(bubble.DriftFreeze, -1, 1, 0), false},
		{"rebalance stage 4 of 4", ev(bubble.DriftRebalance, 4, 1, 0), false},
		{"straggler stage 4 of 4", ev(bubble.DriftStraggler, 4, 1, time.Second), false},
		{"resize ignores its stage", ev(bubble.DriftResize, 99, 1, 0), true},
		{"last stage", ev(bubble.DriftRebalance, 3, 1, 0), true},
		{"negative magnitude", ev(bubble.DriftFreeze, 0, -0.5, 0), true},
	}
	for _, c := range cases {
		cfg := fastCfg(freeride.MethodIterative)
		cfg.Drift = &bubble.DriftSchedule{Events: []bubble.DriftEvent{c.ev}}
		_, err := freeride.NewSession(cfg)
		if ok := err == nil; ok != c.ok {
			t.Errorf("%s: accepted = %v, want %v (err: %v)", c.name, ok, c.ok, err)
		}
	}
	cfg := fastCfg(freeride.MethodIterative)
	cfg.Drift = bubble.GenerateDrift(1, time.Minute, 64, nil, cfg.Stages)
	if _, err := freeride.NewSession(cfg); err != nil {
		t.Errorf("generated drift refused: %v", err)
	}
}

// TestNewSessionRefusesMalformedFaults pins the fault plane's front door: an
// event the injector cannot deliver as written is refused before the session
// is built, not counted as skipped or clamped. A window or an extra latency
// on a kind that ignores it is accepted.
func TestNewSessionRefusesMalformedFaults(t *testing.T) {
	ev := func(at time.Duration, kind simfault.Kind, worker int, window, extra time.Duration) simfault.Event {
		return simfault.Event{At: at, Kind: kind, Worker: worker, Window: window, Extra: extra}
	}
	sec := time.Second
	cases := []struct {
		name string
		ev   simfault.Event
		ok   bool
	}{
		{"kind 0", ev(sec, 0, 0, 0, 0), false},
		{"kind 99", ev(sec, 99, 0, 0, 0), false},
		{"negative instant", ev(-sec, simfault.KindCrashWorker, 0, 0, 0), false},
		{"worker -1", ev(sec, simfault.KindSeverLink, -1, 0, 0), false},
		{"worker 4 of 4", ev(sec, simfault.KindFailKernel, 4, 0, 0), false},
		{"drop negative window", ev(sec, simfault.KindDropRPC, 1, -sec, 0), false},
		{"delay negative window", ev(sec, simfault.KindDelayRPC, 1, -sec, time.Millisecond), false},
		{"wedge negative window", ev(sec, simfault.KindWedgeTask, 1, -sec, 0), false},
		{"delay negative extra", ev(sec, simfault.KindDelayRPC, 1, sec, -time.Millisecond), false},
		{"instant 0, last worker", ev(0, simfault.KindCrashWorker, 3, 0, 0), true},
		{"crash ignores its window", ev(sec, simfault.KindCrashWorker, 0, -sec, 0), true},
		{"drop ignores its extra", ev(sec, simfault.KindDropRPC, 0, sec, -sec), true},
	}
	for _, c := range cases {
		cfg := fastCfg(freeride.MethodIterative)
		cfg.Faults = &simfault.Schedule{Events: []simfault.Event{c.ev}}
		_, err := freeride.NewSession(cfg)
		if ok := err == nil; ok != c.ok {
			t.Errorf("%s: accepted = %v, want %v (err: %v)", c.name, ok, c.ok, err)
		}
	}
	cfg := fastCfg(freeride.MethodIterative)
	cfg.Faults = simfault.Generate(1, time.Minute, 64, nil, cfg.Stages)
	if _, err := freeride.NewSession(cfg); err != nil {
		t.Errorf("generated faults refused: %v", err)
	}
}

// TestNewSessionRefusesNonFiniteServing pins that a serving trace's rate,
// burstiness and SLO guard must be finite: a NaN rate or burstiness used to
// run to completion with negative latencies and no SLO violations.
func TestNewSessionRefusesNonFiniteServing(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, field := range []string{"rate", "burstiness", "guard"} {
			sc := &freeride.ServingConfig{Trace: freeride.TraceBursty, Rate: 2, Burstiness: 2, Requests: 16}
			switch field {
			case "rate":
				sc.Rate = bad
			case "burstiness":
				sc.Burstiness = bad
			case "guard":
				sc.Guard = bad
			}
			cfg := fastCfg(freeride.MethodIterative)
			cfg.Serving = sc
			if _, err := freeride.NewSession(cfg); err == nil {
				t.Errorf("serving %s %v accepted", field, bad)
			}
		}
	}
}

// TestAcceptedConfigsRun is the deterministic half of "fuzz the front door":
// 48 seeded random configurations over method × schedule × stages ×
// micro-batches × serving × faults × drift. Each is either turned away before
// it runs — by normalize, or by the memory model when the schedule's
// footprint does not fit the device — or runs to completion: no panic, no
// stalled simulation, and every request of a serving trace served.
func TestAcceptedConfigsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	methods := []freeride.Method{freeride.MethodNone, freeride.MethodIterative,
		freeride.MethodImperative, freeride.MethodMPS, freeride.MethodNaive}
	ran, refused := 0, 0
	for i := 0; i < 48; i++ {
		cfg := freeride.DefaultConfig()
		cfg.Epochs = 2
		cfg.WorkScale = sidetask.WorkNone
		cfg.Seed = int64(i + 1)
		cfg.Method = methods[rng.Intn(len(methods))]
		cfg.Schedule = model.AllSchedules()[rng.Intn(len(model.AllSchedules()))]
		cfg.Stages = 2 + rng.Intn(5)
		cfg.MicroBatches = 2 * (1 + rng.Intn(4))
		const horizon = 8 * time.Second
		serving, faults, drift := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(3) == 0
		if serving {
			cfg.Serving = &freeride.ServingConfig{
				Trace: freeride.TracePoisson + serve.TraceKind(rng.Intn(3)), Burstiness: 2,
				Requests: 40, Guard: float64(rng.Intn(3)),
			}
		}
		if faults {
			cfg.Faults = simfault.Generate(cfg.Seed, horizon, 3, nil, cfg.Stages)
		}
		if drift {
			cfg.Drift = bubble.GenerateDrift(cfg.Seed, horizon, 2, nil, cfg.Stages)
			if rng.Intn(2) == 0 {
				cfg.Replan = &bubble.DetectorConfig{}
			}
		}
		what := fmt.Sprintf("config %d (%v %v S=%d M=%d serving=%v faults=%v drift=%v)", i,
			cfg.Method, cfg.Schedule, cfg.Stages, cfg.MicroBatches, serving, faults, drift)

		sess, err := freeride.NewSession(cfg)
		if err != nil {
			t.Logf("%s: refused: %v", what, err)
			refused++
			continue
		}
		if cfg.Method != freeride.MethodNone {
			if _, err := sess.SubmitEverywhere(model.ResNet18); err != nil {
				t.Errorf("%s: submit: %v", what, err)
				continue
			}
		}
		res, err := sess.Run()
		switch {
		case errors.Is(err, simgpu.ErrDeviceOOM):
			t.Logf("%s: refused: %v", what, err)
			refused++ // the workload's own memory does not fit: Start fails before any event
		case err != nil:
			t.Errorf("%s: %v", what, err)
		case serving && res.ServingStats.Requests != 40:
			t.Errorf("%s: %d of 40 requests completed", what, res.ServingStats.Requests)
		case res.TrainTime <= 0:
			t.Errorf("%s: no run time recorded", what)
		default:
			ran++
		}
	}
	t.Logf("%d ran to completion, %d refused", ran, refused)
	if ran < 16 {
		t.Errorf("only %d of 48 configurations ran — the generator is mostly producing rejects", ran)
	}
}

// TestDispatchedByOwner: a Table 2 session, the same under a worker crash
// and a serving session each dispatch every event under an owner its call
// site named — the per-owner counts, which Result.Events reports, sum to the
// engine's total exactly, every owner the session has is non-zero, and no
// event is left to OwnerOther. Result.Folded reports the engine's folded
// completions, of which the side tasks' step loops make some in each.
func TestDispatchedByOwner(t *testing.T) {
	crashed := fastCfg(freeride.MethodIterative)
	crashed.Faults = simfault.Generate(1, 8*time.Second, 1, []simfault.Kind{simfault.KindCrashWorker}, crashed.Stages)
	served := fastCfg(freeride.MethodIterative)
	served.Serving = &freeride.ServingConfig{Guard: 1}
	for _, tc := range []struct {
		name string
		cfg  freeride.Config
		uses []simtime.Owner
	}{
		{"table2", fastCfg(freeride.MethodIterative), []simtime.Owner{simtime.OwnerPipeline, simtime.OwnerSideTask, simtime.OwnerRPC, simtime.OwnerManager}},
		{"table2-crash", crashed, []simtime.Owner{simtime.OwnerPipeline, simtime.OwnerSideTask, simtime.OwnerRPC, simtime.OwnerManager, simtime.OwnerLiveness, simtime.OwnerFault}},
		{"serving", served, []simtime.Owner{simtime.OwnerSideTask, simtime.OwnerRPC, simtime.OwnerManager, simtime.OwnerServe}},
	} {
		sess, err := freeride.NewSession(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := sess.SubmitEverywhere(model.ResNet18); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		by := sess.Eng.DispatchedBy()
		if res.Events != by {
			t.Errorf("%s: Result.Events %v, the engine's per-owner counts %v", tc.name, res.Events, by)
		}
		var sum uint64
		for o, n := range by {
			sum += n
			if used := slices.Contains(tc.uses, simtime.Owner(o)); used != (n > 0) {
				t.Errorf("%s: owner %d dispatched %d events, want them only for owners %v", tc.name, o, n, tc.uses)
			}
		}
		if sum != sess.Eng.Dispatched() {
			t.Errorf("%s: per-owner counts %v sum to %d, Dispatched is %d", tc.name, by, sum, sess.Eng.Dispatched())
		}
		if folded := sess.Eng.FoldedBy(); res.Folded != folded || folded[simtime.OwnerSideTask] == 0 {
			t.Errorf("%s: Result.Folded %v, the engine's per-owner folds %v; want side-task folds", tc.name, res.Folded, folded)
		}
	}
}
