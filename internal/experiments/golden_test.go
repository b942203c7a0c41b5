package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"freeride"
	"freeride/internal/bubble"
	"freeride/internal/model"
	"freeride/internal/serve"
	"freeride/internal/sidetask"
	"freeride/internal/simfault"
	"freeride/internal/simtime"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current implementation")

const goldenPath = "testdata/golden.json"

// sessionDigest hashes everything a run reports except the Config it was
// built from: times, per-task work, cost, manager / worker / fault / serving
// statistics. (The hashing is benchmark/run.go's resultDigest, plus Cost.)
// TaskWork.StepEvents is left out: it counts the engine events a substrate
// spent on the steps, accounting like the engine's own event count, which no
// digest carries either. Steps stays hashed.
func sessionDigest(res *freeride.Result) string {
	tasks := slices.Clone(res.Tasks)
	for i := range tasks {
		tasks[i].StepEvents = 0
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d|%+v|%+v|%+v|%+v|%+v|%+v", res.TrainTime, tasks, res.Cost,
		res.ManagerStats, res.WorkerStats, res.FaultStats, res.ServingStats)
	return hex.EncodeToString(h.Sum(nil))
}

// shellTask is a user-written side task with no Stepper face: its blocking
// RunNextStep puts it on the goroutine shell, the way RegisterCustom runs
// anything a FreeRide user writes against the iterative interface.
type shellTask struct{}

func (shellTask) CreateSideTask(*sidetask.Ctx) error { return nil }
func (shellTask) InitSideTask(ctx *sidetask.Ctx) error {
	return ctx.GPU.AllocMem(ctx.Profile.MemBytes)
}
func (shellTask) RunNextStep(ctx *sidetask.Ctx) error {
	ctx.HostWork(ctx.Profile.HostOverhead)
	return ctx.ExecStepKernel()
}
func (shellTask) StopSideTask(ctx *sidetask.Ctx) error {
	ctx.GPU.FreeMem(ctx.Profile.MemBytes)
	return nil
}

// goldenShellCells pins the goroutine shell inside whole sessions: the
// custom task on every stage it fits on, then the same session with worker 0
// crashed a third of the way in — its shell is killed while parked, the task
// is re-placed and a fresh incarnation's process runs to the end.
func goldenShellCells(t *testing.T, mutate func(*freeride.Config)) map[string]*freeride.Result {
	t.Helper()
	profile := model.ResNet18
	profile.Name = "shell-custom"
	profile.BatchScalable = false // batch suffixes belong to the built-ins
	submit := func(sess *freeride.Session) error {
		build := func(int64) sidetask.Iterative { return shellTask{} }
		if err := sess.RegisterCustom(profile, build); err != nil {
			return err
		}
		_, err := sess.SubmitEverywhere(profile)
		return err
	}
	cfg := oracleOpts().baseConfig(freeride.MethodIterative)
	ref, err := runSession(mutated(cfg, mutate), submit)
	if err != nil {
		t.Fatalf("shell/custom-everywhere: %v", err)
	}
	cfg.Faults = &simfault.Schedule{Events: []simfault.Event{
		{At: ref.TrainTime / 3, Kind: simfault.KindCrashWorker, Worker: 0},
	}}
	crashed, err := runSession(mutated(cfg, mutate), submit)
	if err != nil {
		t.Fatalf("shell/custom-crash-worker: %v", err)
	}
	if ref.TotalSteps() == 0 {
		t.Error("shell/custom-everywhere ran no side-task steps")
	}
	if st := crashed.ManagerStats; st.WorkersLost != 1 || st.RestartedTasks == 0 {
		t.Errorf("shell/custom-crash-worker: %d workers lost, %d tasks restarted; want 1 and > 0",
			st.WorkersLost, st.RestartedTasks)
	}
	cells := map[string]*freeride.Result{
		"shell/custom-everywhere":   ref,
		"shell/custom-crash-worker": crashed,
	}
	// The digests leave StepEvents out; pin it exactly here instead. Every
	// shell step's HostWork sleep rides its kernel as the host lead: one
	// engine event per step. A re-placed task resumes its Steps from the
	// checkpoint, which does not carry StepEvents (ROADMAP, "Closed forms
	// exact or bounded" (b)), so there the events fall short by the
	// checkpointed steps.
	for name, res := range cells {
		for _, tw := range res.Tasks {
			if tw.StepEvents != tw.Steps && (tw.Restarts == 0 || tw.StepEvents > tw.Steps) {
				t.Errorf("%s: task %s on worker %d (%d restarts): %d step events over %d steps, want one per step",
					name, tw.Name, tw.Worker, tw.Restarts, tw.StepEvents, tw.Steps)
			}
		}
	}
	return cells
}

// goldenWorkSmallCells pins sessions whose side tasks do real host work
// (WorkSmall): the paper's mixed placement, then ResNet18 everywhere with
// worker 0 crashed a third of the way in — the dead incarnation's step is
// abandoned and the re-placed one builds a fresh model.
func goldenWorkSmallCells(t *testing.T, mutate func(*freeride.Config)) map[string]*freeride.Result {
	t.Helper()
	cfg := oracleOpts().baseConfig(freeride.MethodIterative)
	cfg.WorkScale = sidetask.WorkSmall
	mixed, err := runMixed(mutated(cfg, mutate))
	if err != nil {
		t.Fatalf("worksmall/mixed: %v", err)
	}
	ref, err := runOne(mutated(cfg, mutate), model.ResNet18)
	if err != nil {
		t.Fatalf("worksmall/resnet18 reference: %v", err)
	}
	cfg.Faults = &simfault.Schedule{Events: []simfault.Event{
		{At: ref.TrainTime / 3, Kind: simfault.KindCrashWorker, Worker: 0},
	}}
	crashed, err := runOne(mutated(cfg, mutate), model.ResNet18)
	if err != nil {
		t.Fatalf("worksmall/resnet18-crash-worker: %v", err)
	}
	if mixed.TotalSteps() == 0 || crashed.TotalSteps() == 0 {
		t.Errorf("worksmall cells ran %d and %d side-task steps; want both > 0",
			mixed.TotalSteps(), crashed.TotalSteps())
	}
	if st := crashed.ManagerStats; st.WorkersLost != 1 || st.RestartedTasks == 0 {
		t.Errorf("worksmall/resnet18-crash-worker: %d workers lost, %d tasks restarted; want 1 and > 0",
			st.WorkersLost, st.RestartedTasks)
	}
	return map[string]*freeride.Result{
		"worksmall/mixed":                 mixed,
		"worksmall/resnet18-crash-worker": crashed,
	}
}

// goldenZeroCommCells pins sessions whose model moves activations between
// stages for free (CommLatency 0): the paper's mixed placement under
// training, and the serving sweep's first cell with side tasks everywhere.
// A zero-length transfer is still an engine event at the current instant, so
// what else is due at that instant runs ahead of the stage's launch.
func goldenZeroCommCells(t *testing.T, mutate func(*freeride.Config)) map[string]*freeride.Result {
	t.Helper()
	cfg := oracleOpts().baseConfig(freeride.MethodIterative)
	cfg.LLM.CommLatency = 0
	mixed, err := runMixed(mutated(cfg, mutate))
	if err != nil {
		t.Fatalf("zerocomm/mixed: %v", err)
	}
	cfg.Serving = &freeride.ServingConfig{Trace: serve.TracePoisson, Rate: 2, SLO: 6 * time.Second}
	serving, err := runOne(mutated(cfg, mutate), model.ResNet18)
	if err != nil {
		t.Fatalf("zerocomm/serving-poisson-r2-slo6: %v", err)
	}
	if mixed.TotalSteps() == 0 || serving.TotalSteps() == 0 {
		t.Errorf("zerocomm cells ran %d and %d side-task steps; want both > 0",
			mixed.TotalSteps(), serving.TotalSteps())
	}
	return map[string]*freeride.Result{
		"zerocomm/mixed":                   mixed,
		"zerocomm/serving-poisson-r2-slo6": serving,
	}
}

// goldenSweepCells runs one default cell of every registered sweep — built
// the way the sweep builds it — and returns the full Results keyed
// "<sweep>/<cell>". The schedule sweep contributes one cell per generator
// other than 1F1B: its first cell (1F1B, ResNet18 everywhere) is a Table 2
// cell already.
func goldenSweepCells(t *testing.T, mutate func(*freeride.Config)) map[string]*freeride.Result {
	t.Helper()
	out := make(map[string]*freeride.Result)
	must := func(name string, res *freeride.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = res
	}
	opts := oracleOpts()
	base := opts.baseConfig(freeride.MethodIterative)

	// faults: the zero-fault lease-enabled reference, then the sweep's first
	// cell (one crash-worker event) generated against its horizon.
	cfg := base
	cfg.Faults = &simfault.Schedule{Seed: opts.Seed}
	ref, err := runOne(mutated(cfg, mutate), model.ResNet18)
	must("faults/zero-fault-ref", ref, err)
	kind := simfault.AllKinds()[0]
	cfg = base
	cfg.Faults = simfault.Generate(opts.Seed*1000+int64(faultSweepCounts[0]), ref.TrainTime,
		faultSweepCounts[0], []simfault.Kind{kind}, cfg.Stages)
	res, err := runOne(mutated(cfg, mutate), model.ResNet18)
	must(fmt.Sprintf("faults/%v-x%d", kind, faultSweepCounts[0]), res, err)

	// drift: the zero-drift detector-armed reference, then the first cell
	// (first kind, first magnitude, fast detector, online arm).
	dbase := base
	dbase.Epochs = 12
	cfg = dbase
	cfg.Drift = &bubble.DriftSchedule{Seed: opts.Seed}
	cfg.Replan = &bubble.DetectorConfig{}
	ref, err = runSession(mutated(cfg, mutate), driftWorkload)
	must("drift/zero-drift-ref", ref, err)
	dkind, mag := bubble.AllDriftKinds()[0], driftSweepMagnitudes[0]
	cfg = dbase
	cfg.Drift = &bubble.DriftSchedule{
		Seed:   opts.Seed * 1000,
		Events: []bubble.DriftEvent{driftEventFor(dkind, mag, ref.TrainTime)},
	}
	det := driftDetectors[0].cfg
	cfg.Replan = &det
	res, err = runSession(mutated(cfg, mutate), driftWorkload)
	must(fmt.Sprintf("drift/%v-f%g-%s", dkind, mag, driftDetectors[0].name), res, err)

	// schedules: S=4, M=4 under every generator but 1F1B.
	for _, sk := range model.AllSchedules() {
		if sk == model.Schedule1F1B {
			continue
		}
		cfg = base
		cfg.Schedule = sk
		if sk == model.ScheduleInterleaved {
			cfg.VirtualStages = 2
		}
		res, err = runOne(mutated(cfg, mutate), model.ResNet18)
		must(fmt.Sprintf("schedules/%v-S4-M4", sk), res, err)
	}

	// serving: the first cell's harvesting arm (Poisson, 2 req/s, 6 s SLO)
	// with the guard off and at the sweep's biting factor (4 defers fits; 1
	// defers none on this trace).
	for _, guard := range []float64{0, 4} {
		cfg = base
		cfg.Serving = &freeride.ServingConfig{
			Trace: serve.TracePoisson, Rate: 2, SLO: 6 * time.Second, Guard: guard,
		}
		name := fmt.Sprintf("serving/poisson-r2-slo6-g%g", guard)
		sess, err := freeride.NewSession(mutated(cfg, mutate))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := sess.SubmitEverywhere(model.ResNet18); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err = sess.Run()
		must(name, res, err)
	}
	return out
}

// mutated returns cfg as mutate leaves it (cfg itself when mutate is nil).
func mutated(cfg freeride.Config, mutate func(*freeride.Config)) freeride.Config {
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// armDrift wires the dormant drift plane into a training cell that has none
// of its own: an empty drift schedule, and the detector and re-plan
// machinery watching a driftless stream, which must never fire. Serving
// cells stay as they are: the drift plane consumes the trainer's epoch
// stream, which a serving session does not produce.
func armDrift(cfg *freeride.Config) {
	if cfg.Serving == nil && cfg.Drift == nil && cfg.Replan == nil {
		cfg.Drift = &bubble.DriftSchedule{}
		cfg.Replan = &bubble.DetectorConfig{}
	}
}

// goldenResults runs every pinned cell, each config passed through mutate
// first, and returns the results by cell name.
func goldenResults(t *testing.T, mutate func(*freeride.Config)) map[string]*freeride.Result {
	t.Helper()
	got := make(map[string]*freeride.Result)
	for name, res := range runOracleGrid(t, mutate) {
		got["table2/"+name] = res
	}
	for _, cells := range []func(*testing.T, func(*freeride.Config)) map[string]*freeride.Result{
		goldenSweepCells, goldenShellCells, goldenWorkSmallCells, goldenZeroCommCells,
	} {
		for name, res := range cells(t, mutate) {
			got[name] = res
		}
	}
	return got
}

// goldenDigests digests every pinned cell's result (see goldenResults).
func goldenDigests(t *testing.T, mutate func(*freeride.Config)) map[string]string {
	t.Helper()
	got := make(map[string]string)
	for name, res := range goldenResults(t, mutate) {
		got[name] = sessionDigest(res)
	}
	return got
}

// TestGoldenSessionDigests pins whole sessions: every Table 2 FreeRide cell,
// a default cell of each sweep, two goroutine-shell sessions
// (shell/custom-everywhere, shell/custom-crash-worker) and two sessions with
// real side-task work (worksmall/mixed, worksmall/resnet18-crash-worker) and
// two with free stage transfers (zerocomm/mixed, zerocomm/serving-poisson-r2-slo6)
// must report the same Result to the last bit as on the commit the digests were
// captured on — the last one that still had a polling manager driver, legacy
// schedule emitters and the share-cache and step-fuse switches to
// cross-check the default arm against (the shell sessions: the last one whose
// shell was a goroutine behind a channel handshake on an escalated engine;
// the worksmall sessions: the last one that ran every built-in step's
// arithmetic on the event loop; the zerocomm sessions: the last one whose
// stage machines slept every transfer before launching). Regenerate deliberately with -update-golden.
//
// The dormant drift plane holds the digests too: every cell runs a second
// time under armDrift and must match the same stored digest. No training
// cell is exempt: the drift arm would legitimately move a fault cell whose
// schedule drops or delays bubble reports (they shift the detector's epoch
// windows), and the one fault kind pinned here — a worker crash — does
// neither.
func TestGoldenSessionDigests(t *testing.T) {
	got := goldenDigests(t, nil)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (run with -update-golden to create it): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d digests, the test runs %d cells", goldenPath, len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden digest", name)
		} else if g != w {
			t.Errorf("%s: digest %s, golden %s", name, g, w)
		}
	}
	for name, g := range goldenDigests(t, armDrift) {
		if w := want[name]; g != w {
			t.Errorf("%s, drift plane armed: digest %s, golden %s", name, g, w)
		}
	}
}

const eventsPath = "testdata/events.json"

// ownerCounts names the non-zero counts of a per-owner array.
func ownerCounts(by [simtime.NumOwners]uint64) map[string]uint64 {
	m := make(map[string]uint64)
	for o, n := range by {
		if n > 0 {
			m[simtime.Owner(o).String()] = n
		}
	}
	return m
}

// cellEvents is what one golden cell spent in engine events, per owner: the
// events dispatched (Result.Events) and the kernel completions folded into
// the dispatch before them (Result.Folded), each of which an unfolded run
// dispatches as one more event of the same owner.
type cellEvents struct {
	Dispatched map[string]uint64 `json:"dispatched"`
	Folded     map[string]uint64 `json:"folded,omitempty"`
}

// TestGoldenEvents pins, for every cell TestGoldenSessionDigests pins, how
// many engine events each owner dispatched and how many completions it
// folded. The digests leave the counts
// out, so a change that adds or removes events fails here, naming the cell
// and the layer, and nowhere else. Regenerate deliberately with
// -update-golden.
func TestGoldenEvents(t *testing.T) {
	got := make(map[string]cellEvents)
	for name, res := range goldenResults(t, nil) {
		got[name] = cellEvents{Dispatched: ownerCounts(res.Events), Folded: ownerCounts(res.Folded)}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(eventsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(got), eventsPath)
		return
	}
	data, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatalf("read golden file (run with -update-golden to create it): %v", err)
	}
	want := make(map[string]cellEvents)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", eventsPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d cells, the test runs %d", eventsPath, len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden events", name)
			continue
		}
		for o := range simtime.NumOwners {
			owner := simtime.Owner(o).String()
			if g.Dispatched[owner] != w.Dispatched[owner] || g.Folded[owner] != w.Folded[owner] {
				t.Errorf("%s: owner %s dispatched %d events and folded %d, golden %d and %d",
					name, owner, g.Dispatched[owner], g.Folded[owner], w.Dispatched[owner], w.Folded[owner])
			}
		}
	}
}
