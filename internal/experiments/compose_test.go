package experiments

import (
	"reflect"
	"strings"
	"testing"

	"freeride"
	"freeride/internal/bubble"
	"freeride/internal/model"
	"freeride/internal/simfault"
)

// servingFaultCfg is the composed plane's test cell: a bursty open-loop trace
// under an SLO guard, FreeRide iterative, fault plane per the caller.
func servingFaultCfg(requests int, faults *simfault.Schedule) freeride.Config {
	cfg := oracleOpts().baseConfig(freeride.MethodIterative)
	cfg.Serving = &freeride.ServingConfig{
		Trace: freeride.TraceBursty, Burstiness: 3, Requests: requests, Guard: 1,
	}
	cfg.Faults = faults
	return cfg
}

// runServing runs one serving session with a ResNet18 on every eligible
// stage.
func runServing(t *testing.T, cfg freeride.Config) *freeride.Result {
	t.Helper()
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
	return res
}

// TestZeroFaultServingBitIdentical is the serving side of
// TestZeroFaultOracleBitIdentical: every fault hook wired and the lease
// detector armed over an EMPTY schedule must reproduce the serving session
// with no fault plane at all — latencies, per-task work, worker counters and
// every manager counter but Pings.
func TestZeroFaultServingBitIdentical(t *testing.T) {
	plain := runServing(t, servingFaultCfg(96, nil))
	wired := runServing(t, servingFaultCfg(96, &simfault.Schedule{}))
	if wired.ManagerStats.Pings == 0 {
		t.Error("lease detector sent no pings (hooks not wired?)")
	}
	wired.ManagerStats.Pings = 0
	if !reflect.DeepEqual(wired.ServingStats, plain.ServingStats) {
		t.Errorf("ServingStats diverged:\n%+v\nvs\n%+v", wired.ServingStats, plain.ServingStats)
	}
	if !reflect.DeepEqual(wired.Tasks, plain.Tasks) {
		t.Errorf("Tasks diverged:\n%+v\nvs\n%+v", wired.Tasks, plain.Tasks)
	}
	if !reflect.DeepEqual(wired.WorkerStats, plain.WorkerStats) {
		t.Errorf("WorkerStats diverged:\n%+v\nvs\n%+v", wired.WorkerStats, plain.WorkerStats)
	}
	if wired.ManagerStats != plain.ManagerStats {
		t.Errorf("ManagerStats diverged:\n%+v\nvs\n%+v", wired.ManagerStats, plain.ManagerStats)
	}
	if plain.TotalSteps() == 0 || plain.ServingStats.Requests != 96 {
		t.Errorf("inert cell: %d steps, %d requests", plain.TotalSteps(), plain.ServingStats.Requests)
	}
}

// checkServingRodeThrough asserts the composed plane's liveness contract on a
// finished run: every request completed exactly once, and no task was retired
// forever (all four stages fit a ResNet18, so a lost worker's task always has
// an eligible peer).
func checkServingRodeThrough(t *testing.T, what string, res *freeride.Result, requests int) {
	t.Helper()
	st, bs := res.ServingStats, res.Config.Serving.BatchSize
	if batches := (requests + bs - 1) / bs; st.Requests != requests || st.Batches != batches {
		t.Errorf("%s: %d requests in %d batches completed, want %d in %d",
			what, st.Requests, st.Batches, requests, batches)
	}
	for _, tw := range res.Tasks {
		if tw.Exited && !tw.Parked && tw.ExitErr != "" {
			t.Errorf("%s: task %s retired forever: %s", what, tw.Name, tw.ExitErr)
		}
	}
}

// TestServingRidesThroughEveryFaultKind: a bursty trace under an SLO guard
// keeps serving through three events of each fault kind — the composition
// normalize used to reject — and the same seed reproduces the run DeepEqual.
func TestServingRidesThroughEveryFaultKind(t *testing.T) {
	const requests = 160
	ref := runServing(t, servingFaultCfg(requests, &simfault.Schedule{}))
	for ki, kind := range simfault.AllKinds() {
		sched := func() *simfault.Schedule {
			return simfault.Generate(int64(100+ki), ref.TrainTime, 3, []simfault.Kind{kind}, 4)
		}
		res := runServing(t, servingFaultCfg(requests, sched()))
		if got := res.FaultStats.Total(); got != 3 {
			t.Errorf("%v: injected %d of 3 events", kind, got)
		}
		checkServingRodeThrough(t, kind.String(), res, requests)
		if kind == simfault.KindCrashWorker && (res.ManagerStats.WorkersLost == 0 || res.ManagerStats.Replacements == 0) {
			t.Errorf("crash: %d workers lost, %d re-placements — nothing recovered",
				res.ManagerStats.WorkersLost, res.ManagerStats.Replacements)
		}
		again := runServing(t, servingFaultCfg(requests, sched()))
		res.Config, again.Config = freeride.Config{}, freeride.Config{}
		if !reflect.DeepEqual(res, again) {
			t.Errorf("%v: same-seed runs diverged:\n%+v\nvs\n%+v", kind, res, again)
		}
		t.Logf("%v: lost %d, re-placed %d, p99 %v (no-fault %v), violations %d (%d)", kind,
			res.ManagerStats.WorkersLost, res.ManagerStats.Replacements,
			res.ServingStats.P99, ref.ServingStats.P99, res.ServingStats.Violations, ref.ServingStats.Violations)
	}
}

// TestNormalizeServingCompositions is the front door's table: serving takes
// the fault plane and turns the drift plane away, and says why.
func TestNormalizeServingCompositions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tweak  func(*freeride.Config)
		reject bool
	}{
		{"serving alone", func(*freeride.Config) {}, false},
		{"serving × faults", func(c *freeride.Config) { c.Faults = &simfault.Schedule{} }, false},
		{"serving × drift", func(c *freeride.Config) { c.Drift = &bubble.DriftSchedule{} }, true},
		{"serving × replan", func(c *freeride.Config) { c.Replan = &bubble.DetectorConfig{} }, true},
		{"serving × faults × drift", func(c *freeride.Config) {
			c.Faults, c.Drift = &simfault.Schedule{}, &bubble.DriftSchedule{}
		}, true},
	} {
		cfg := servingFaultCfg(16, nil)
		tc.tweak(&cfg)
		_, err := freeride.NewSession(cfg)
		switch {
		case !tc.reject && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.reject && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.reject && !strings.Contains(err.Error(), "windows by report count per cycle"):
			t.Errorf("%s: rejection does not name the estimator window: %v", tc.name, err)
		}
	}
}
