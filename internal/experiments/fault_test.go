package experiments

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"freeride"
	"freeride/internal/model"
	"freeride/internal/simfault"
)

// TestZeroFaultOracleBitIdentical is the fault plane's do-no-harm oracle:
// with every hook wired (transport fault filters, device fault arming,
// worker crash/wedge surfaces, manager leases/pings/recovery machinery) and
// an EMPTY schedule, the entire Table 2 grid must be bit-identical to runs
// with no fault plane at all. Pings are the one intentional difference (the
// lease detector probes on its own counter) and are zeroed before compare.
func TestZeroFaultOracleBitIdentical(t *testing.T) {
	plain := runOracleGrid(t, nil)
	wired := runOracleGrid(t, func(cfg *freeride.Config) {
		cfg.Faults = &simfault.Schedule{}
	})
	for key, res := range wired {
		if res.ManagerStats.Pings == 0 {
			t.Errorf("cell %s: lease detector sent no pings (hooks not wired?)", key)
		}
		res.ManagerStats.Pings = 0
	}
	for _, res := range plain {
		res.ManagerStats.Pings = 0
	}
	compareOracleGrids(t, wired, plain, "zero-fault vs no fault plane")
}

// TestZeroFaultDetectorEventBudget bounds what the armed failure detector
// costs the engine when nothing fails: a ping is three events (tick, request,
// reply), and the lease check runs once per worker — the first tick cannot
// yet know the worker answers — and never again. No event for a ping
// deadline that was met, none for a lease that was refreshed.
func TestZeroFaultDetectorEventBudget(t *testing.T) {
	run := func(armed bool) (events, pings uint64, workers int) {
		cfg := oracleOpts().baseConfig()
		cfg.Method = freeride.MethodIterative
		if armed {
			cfg.Faults = &simfault.Schedule{}
		}
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
		return sess.Eng.Dispatched(), res.ManagerStats.Pings, len(sess.Workers)
	}
	plain, _, _ := run(false)
	armed, pings, workers := run(true)
	if pings == 0 {
		t.Fatal("armed session sent no pings")
	}
	extra, budget := armed-plain, 3*pings+uint64(workers)
	t.Logf("%d pings, %d workers: %d extra events", pings, workers, extra)
	if extra > budget {
		t.Errorf("armed session dispatched %d more events than unarmed, budget 3·%d pings + %d workers = %d (%.2f per ping)",
			extra, pings, workers, budget, float64(extra)/float64(pings))
	}
}

// faultOpts is the shrunk sweep configuration the fault tests share.
func faultOpts(seed int64) Options {
	o := oracleOpts()
	o.Seed = seed
	return o
}

// TestFaultSweepDeterministic pins the determinism contract: the same seed
// must reproduce the full sweep — schedules, injection instants, recovery
// decisions, final metrics — DeepEqual, and a different seed must actually
// produce a different schedule (no degenerate generator).
func TestFaultSweepDeterministic(t *testing.T) {
	a, err := RunFaultSweep(faultOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaultSweep(faultOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed sweeps diverged:\n%+v\nvs\n%+v", a, b)
	}
	s1 := simfault.Generate(1, time.Minute, 8, nil, 4)
	s2 := simfault.Generate(2, time.Minute, 8, nil, 4)
	if reflect.DeepEqual(s1.Events, s2.Events) {
		t.Errorf("different seeds produced identical schedules: %+v", s1.Events)
	}
	for _, row := range a.Rows {
		if row.Injected != uint64(row.Events) {
			t.Errorf("%v×%d: injected %d of %d scheduled events",
				row.Kind, row.Events, row.Injected, row.Events)
		}
	}
}

// TestCrashSweepRecovers is the acceptance pin for self-healing: a
// crash-worker schedule over the SubmitEverywhere workload (every stage
// hosts a task, every stage has eligible peers) must restart the lost tasks
// elsewhere — RestartedTasks > 0 and no task retired forever — while the
// main training job's time stays unchanged.
func TestCrashSweepRecovers(t *testing.T) {
	res, err := RunFaultSweep(faultOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	crashRows := 0
	for _, row := range res.Rows {
		if row.Kind != simfault.KindCrashWorker {
			continue
		}
		crashRows++
		if row.WorkersLost == 0 {
			t.Errorf("crash×%d: no workers lost", row.Events)
		}
		if row.Restarted == 0 {
			t.Errorf("crash×%d: no tasks restarted", row.Events)
		}
		if row.RetiredForever != 0 {
			t.Errorf("crash×%d: %d tasks retired forever with eligible peers available",
				row.Events, row.RetiredForever)
		}
		// A crash physically frees the dead worker's side-task residency
		// tax until the replacement lands, so training may run marginally
		// FASTER under crash faults — but recovery must never slow it.
		if over := row.RecoveryOverhead(); over > 0 {
			t.Errorf("crash×%d: recovery slowed training by %v (%v vs %v)",
				row.Events, over, row.TrainTime, row.BaseTime)
		} else if -over > row.BaseTime/100 {
			t.Errorf("crash×%d: training time drifted %v beyond the tax-relief "+
				"margin (%v vs %v)", row.Events, over, row.TrainTime, row.BaseTime)
		}
	}
	if crashRows == 0 {
		t.Fatal("sweep produced no crash-worker rows")
	}
}

// TestChaosScheduleSuiteGreen is the CI chaos hook: it runs the full
// workload mix under a generated all-kinds fault schedule seeded by
// FREERIDE_CHAOS_SEED (default 1) and asserts the system's liveness
// invariants — the run completes, training finishes, and every task either
// steps, parks, or exits for a reported reason. CI runs it under a seed
// matrix; any seed must hold the invariants.
func TestChaosScheduleSuiteGreen(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("FREERIDE_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad FREERIDE_CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	opts := faultOpts(seed)
	cfg := opts.baseConfig()
	cfg.Method = freeride.MethodIterative

	// Horizon from a fault-free probe run, then a dense all-kinds schedule.
	probe := cfg
	probe.Faults = &simfault.Schedule{}
	ref, err := runOne(probe, []model.TaskProfile{model.ResNet18})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = simfault.Generate(seed, ref.TrainTime, 12, nil, cfg.Stages)
	res, err := runOne(cfg, []model.TaskProfile{model.ResNet18})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultStats.Total() != 12 {
		t.Errorf("injected %d of 12 scheduled events", res.FaultStats.Total())
	}
	if res.TrainTime <= 0 {
		t.Errorf("training did not complete: %v", res.TrainTime)
	}
	for _, tw := range res.Tasks {
		if tw.Steps == 0 && !tw.Parked && !tw.Exited {
			t.Errorf("task %s: no steps, not parked, not exited", tw.Name)
		}
		if tw.Exited && !tw.Parked && tw.ExitErr != "" {
			t.Errorf("task %s: retired forever: %s", tw.Name, tw.ExitErr)
		}
	}
}

// TestFaultSweepRendering sanity-checks the table and CSV emitters.
func TestFaultSweepRendering(t *testing.T) {
	r := &FaultSweepResult{Rows: []FaultSweepRow{{
		Kind: simfault.KindCrashWorker, Events: 1, Injected: 1,
		TrainTime: 2 * time.Second, BaseTime: 2 * time.Second,
		Harvested: time.Second, BaseHarvest: time.Second,
		WorkersLost: 1, Restarted: 1, Replacements: 1,
	}}}
	if s := r.Render(); s == "" {
		t.Error("empty render")
	}
	var b bytes.Buffer
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() == "" {
		t.Error("empty csv")
	}
	_ = fmt.Sprintf("%v", r.Rows[0].RecoveryOverhead())
}
