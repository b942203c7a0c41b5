package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"freeride"
	"freeride/internal/model"
	"freeride/internal/simfault"
	"freeride/internal/simtime"
)

// TestZeroFaultOracleBitIdentical is the fault plane's do-no-harm oracle:
// with every hook wired (transport fault filters, device fault arming,
// worker crash/wedge surfaces, manager leases/pings/recovery machinery) and
// an EMPTY schedule, the entire Table 2 grid must be bit-identical to runs
// with no fault plane at all. Pings are the one intentional difference (the
// lease detector probes on its own counter) and are zeroed before compare,
// with the engine events they cost (Result.Events) and the folds they move
// (Result.Folded: a ping queued ahead of a completion keeps it from folding).
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
		res.Events, res.Folded = [simtime.NumOwners]uint64{}, [simtime.NumOwners]uint64{}
	}
	for _, res := range plain {
		res.ManagerStats.Pings = 0
		res.Events, res.Folded = [simtime.NumOwners]uint64{}, [simtime.NumOwners]uint64{}
	}
	compareOracleGrids(t, wired, plain, "zero-fault vs no fault plane")
}

// TestZeroFaultDetectorEventBudget bounds what the armed failure detector
// costs the engine when nothing fails: a ping is at most three events (tick,
// request, reply — fewer since one tick pings every worker and same-instant
// deliveries share an event), and the lease check runs once per worker — the
// first tick cannot yet know the worker answers — and never again. No event for a ping
// deadline that was met, none for a lease that was refreshed.
func TestZeroFaultDetectorEventBudget(t *testing.T) {
	run := func(armed bool) (events, pings uint64, workers int) {
		cfg := oracleOpts().baseConfig(freeride.MethodIterative)
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
	// The pool changes nothing: rows and CSV bytes at Parallelism 4 equal the
	// sequential sweep's.
	seq, par := faultOpts(7), faultOpts(7)
	seq.Parallelism, par.Parallelism = 1, 4
	sameSweepAtAnyWidth(t, seq, par, func(o Options) ([]FaultSweepRow, csvWriter, error) {
		r, err := RunFaultSweep(o)
		if err != nil {
			return nil, nil, err
		}
		return r.Rows, r, nil
	})
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

// csvWriter is the CSV half of every sweep result.
type csvWriter interface{ WriteCSV(io.Writer) error }

// sameSweepAtAnyWidth runs a sweep under two Options that differ only in
// Parallelism and asserts equal rows and equal CSV bytes.
func sameSweepAtAnyWidth[R any](t *testing.T, a, b Options, run func(Options) ([]R, csvWriter, error)) {
	t.Helper()
	var csvs [2]bytes.Buffer
	var rows [2][]R
	for i, o := range []Options{a, b} {
		r, w, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteCSV(&csvs[i]); err != nil {
			t.Fatal(err)
		}
		rows[i] = r
	}
	if !reflect.DeepEqual(rows[0], rows[1]) {
		t.Errorf("rows differ between Parallelism %d and %d:\n%+v\nvs\n%+v", a.Parallelism, b.Parallelism, rows[0], rows[1])
	}
	if !bytes.Equal(csvs[0].Bytes(), csvs[1].Bytes()) {
		t.Errorf("CSV bytes differ between Parallelism %d and %d", a.Parallelism, b.Parallelism)
	}
}

// shardsPartition asserts a sweep's shard filter partitions its grid exactly:
// the three shards' rows, interleaved back by cell, are the unsharded rows.
// perCell is how many rows one cell yields.
func shardsPartition[R any](t *testing.T, opts Options, perCell int, run func(Options) ([]R, error)) {
	t.Helper()
	whole, err := run(opts)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	var parts [shards][]R
	for k := range parts {
		o := opts
		o.Shard, o.ShardCount = k, shards
		if parts[k], err = run(o); err != nil {
			t.Fatal(err)
		}
	}
	var merged []R
	for cell := 0; cell*perCell < len(whole); cell++ {
		k, at := cell%shards, cell/shards*perCell
		if at+perCell > len(parts[k]) {
			t.Fatalf("shard %d is short: cell %d missing", k, cell)
		}
		merged = append(merged, parts[k][at:at+perCell]...)
	}
	if n := len(parts[0]) + len(parts[1]) + len(parts[2]); n != len(whole) {
		t.Errorf("shards hold %d rows, the whole sweep %d", n, len(whole))
	}
	if !reflect.DeepEqual(merged, whole) {
		t.Errorf("shards do not reassemble the whole sweep:\n%+v\nvs\n%+v", merged, whole)
	}
}

func TestFaultSweepShardsPartition(t *testing.T) {
	shardsPartition(t, faultOpts(1), 1, func(o Options) ([]FaultSweepRow, error) {
		r, err := RunFaultSweep(o)
		if err != nil {
			return nil, err
		}
		return r.Rows, nil
	})
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
// matrix; any seed must hold the invariants. The training arm runs twice:
// plain, and with the drift plane armed at its zero configuration, where
// faults that drop or delay bubble reports shift the detector's epoch
// windows, so re-plans fire during fault recovery.
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
	cfg := opts.baseConfig(freeride.MethodIterative)

	// Horizon from a fault-free probe run, then a dense all-kinds schedule.
	probe := cfg
	probe.Faults = &simfault.Schedule{}
	ref, err := runOne(probe, model.ResNet18)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = simfault.Generate(seed, ref.TrainTime, 12, nil, cfg.Stages)
	armed := cfg
	armDrift(&armed)
	for _, c := range []struct {
		arm string
		cfg freeride.Config
	}{{"plain", cfg}, {"drift armed", armed}} {
		res, err := runOne(c.cfg, model.ResNet18)
		if err != nil {
			t.Fatalf("%s: %v", c.arm, err)
		}
		if res.FaultStats.Total() != 12 {
			t.Errorf("%s: injected %d of 12 scheduled events", c.arm, res.FaultStats.Total())
		}
		if res.TrainTime <= 0 {
			t.Errorf("%s: training did not complete: %v", c.arm, res.TrainTime)
		}
		for _, tw := range res.Tasks {
			if tw.Steps == 0 && !tw.Parked && !tw.Exited {
				t.Errorf("%s: task %s: no steps, not parked, not exited", c.arm, tw.Name)
			}
			if tw.Exited && !tw.Parked && tw.ExitErr != "" {
				t.Errorf("%s: task %s: retired forever: %s", c.arm, tw.Name, tw.ExitErr)
			}
		}
	}

	// The serving arm: the same dense all-kinds schedule over a bursty trace
	// under an SLO guard — every request still completes exactly once.
	const requests = 160
	sref := runServing(t, servingFaultCfg(requests, &simfault.Schedule{}))
	sres := runServing(t, servingFaultCfg(requests,
		simfault.Generate(seed, sref.TrainTime, 12, nil, cfg.Stages)))
	if sres.FaultStats.Total() != 12 {
		t.Errorf("serving: injected %d of 12 scheduled events", sres.FaultStats.Total())
	}
	checkServingRodeThrough(t, "serving chaos", sres, requests)
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
