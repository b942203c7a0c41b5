package core

import (
	"strings"
	"testing"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/model"
	"freeride/internal/sidetask"
)

// replanOpts arms the re-plan plane with the given detector; normalize fills
// in the restart budget and backoff the recovery cycle shares with leases.
func replanOpts(det bubble.DetectorConfig) ManagerOptions {
	return ManagerOptions{Tick: time.Millisecond, Replan: &det}
}

// TestDriftDemotionReplacesTaskAndChargesLostWork is the end-to-end demote
// path: the home stage's reported bubbles collapse below the task's
// pause-time fit, the detector fires, and the manager demotes the task
// mid-serve — charging the un-checkpointed partial serve to LostWork
// exactly like a crash does — and re-places it on a stage that still fits.
func TestDriftDemotionReplacesTaskAndChargesLostWork(t *testing.T) {
	r := newRigOpts(t, 2, []int64{22 * model.GiB, 22 * model.GiB}, WorkerConfig{},
		replanOpts(bubble.FastDetector()))
	if err := r.mgr.Submit(spec("t0", model.GraphSGD, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	// One-shot profile: worker0 supplies one 2s bubble per epoch.
	r.mgr.SetBubbleBaseline("worker0", 2*time.Second, 1)
	r.mgr.Start()
	r.eng.RunFor(6 * time.Second) // create + init

	// A profile-true bubble: the window sum equals the baseline exactly, so
	// the detector stays silent and the task serves.
	base := r.eng.Now()
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: base, Duration: 2 * time.Second})
	r.eng.RunFor(500 * time.Millisecond) // mid-serve, no pause yet

	// The supply collapses: a 100ms report (-95% off baseline) fires the
	// fast detector on arrival and the re-plan demotes the serving task —
	// GraphSGD's fit (~268ms) no longer fits a 100ms mean bubble.
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: r.eng.Now() + time.Second, Duration: 100 * time.Millisecond})
	r.eng.RunFor(6 * time.Second) // backoff + re-create + re-init on worker1

	if w, ok := r.mgr.TaskWorker("t0"); !ok || w != "worker1" {
		t.Fatalf("TaskWorker = %q/%v, want worker1 (escape stage)", w, ok)
	}
	st := r.mgr.Stats()
	if st.DriftEvents != 1 || st.Replans != 1 || st.Demotions != 1 {
		t.Fatalf("stats = %+v, want 1 detection / 1 replan / 1 demotion", st)
	}
	if st.RestartedTasks != 1 || st.Replacements != 1 || st.ParkedTasks != 0 {
		t.Fatalf("stats = %+v, want 1 restarted / 1 replacement / 0 parked", st)
	}
	// ~500ms of the in-flight bubble was served past the last checkpoint
	// when the demotion struck; that work is lost like a crash loses it.
	if st.LostWork < 300*time.Millisecond || st.LostWork > time.Second {
		t.Fatalf("LostWork = %v, want the ~500ms un-checkpointed partial serve", st.LostWork)
	}
	tv := taskView(t, r.mgr, "t0")
	if tv.Exited || tv.Parked || tv.Restarts != 1 {
		t.Fatalf("task view = %+v, want live with 1 restart", tv)
	}

	// The new incarnation harvests on its new stage.
	h, ok := r.workers[1].Harness("t0")
	if !ok {
		t.Fatal("task not re-deployed on worker1")
	}
	before := h.Counters().Steps
	r.mgr.AddBubble(bubble.Bubble{Stage: 1, Start: r.eng.Now(), Duration: 500 * time.Millisecond})
	r.eng.RunFor(time.Second)
	if got := h.Counters().Steps; got <= before {
		t.Fatalf("demoted task never stepped on its new stage (%d <= %d)", got, before)
	}
}

// TestGraceKillClassification is the drift-aware grace handling: a
// pause-overrun kill on a worker whose bubble supply is contracting is a
// stale admission (the manager's plan was wrong, not the task) and enters
// recovery; the same kill with no shrink evidence stays terminal.
func TestGraceKillClassification(t *testing.T) {
	hog := func(s TaskSpec) (*sidetask.Harness, error) {
		p := s.Profile
		p.StepTime = 20 * time.Second // one giant kernel per step
		p.StepJitter = 0
		p.CreateTime = 100 * time.Millisecond
		p.InitTime = 50 * time.Millisecond
		return sidetask.NewImperativeHarness(s.Name, p, hugeKernelTask{}, s.Seed), nil
	}
	run := func(t *testing.T, baseline time.Duration) (*rig, TaskView) {
		t.Helper()
		r := newRigOpts(t, 2, []int64{22 * model.GiB, 22 * model.GiB},
			WorkerConfig{Grace: 200 * time.Millisecond, Factory: hog},
			replanOpts(bubble.DetectorConfig{}))
		if err := r.mgr.Submit(spec("hog", model.GraphSGD, sidetask.ModeImperative)); err != nil {
			t.Fatal(err)
		}
		r.mgr.SetBubbleBaseline("worker0", baseline, 1)
		r.mgr.Start()
		r.eng.RunFor(time.Second)
		// One 400ms bubble: the hog's kernel overruns it and is killed at
		// bubble end + grace.
		r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: r.eng.Now(), Duration: 400 * time.Millisecond})
		r.eng.RunFor(3 * time.Second)
		if got := r.workers[0].Stats().GraceKills; got != 1 {
			t.Fatalf("GraceKills = %d, want 1", got)
		}
		return r, taskView(t, r.mgr, "hog")
	}

	t.Run("shrink-suspected-recovers", func(t *testing.T) {
		// Baseline 800ms, observed 400ms: negative CUSUM mass accumulates
		// (under the default threshold — no detection yet) so the kill is
		// classified as a recoverable re-plan demotion.
		r, tv := run(t, 800*time.Millisecond)
		if tv.Exited || tv.Parked {
			t.Fatalf("task view = %+v, want recovering (shrink-suspected grace kill)", tv)
		}
		if tv.Restarts != 1 {
			t.Fatalf("Restarts = %d, want 1", tv.Restarts)
		}
		if st := r.mgr.Stats(); st.RestartedTasks != 1 {
			t.Fatalf("stats = %+v, want 1 restarted task", st)
		}
	})
	t.Run("no-evidence-stays-terminal", func(t *testing.T) {
		// Baseline matches the observed bubble exactly: zero CUSUM mass, no
		// shrink suspicion — the kill is the task's own outcome.
		r, tv := run(t, 400*time.Millisecond)
		if !tv.Exited || !strings.Contains(tv.ExitErr, "killed") {
			t.Fatalf("task view = %+v, want terminal grace kill", tv)
		}
		if st := r.mgr.Stats(); st.RestartedTasks != 0 || st.Demotions != 0 {
			t.Fatalf("stats = %+v, want no recovery without shrink evidence", st)
		}
	})
}

// TestReplanRevivesParkedTask closes the demote/park/revive cycle: a task
// demoted into parking (no stage fits the shrunken profile, repeated stale
// admissions counted) is revived with a fresh budget when the supply grows
// back past its fit.
func TestReplanRevivesParkedTask(t *testing.T) {
	// VGG19 (9.8 GiB) only ever fits worker0; worker1 is a 3 GiB dead end.
	r := newRigOpts(t, 2, []int64{22 * model.GiB, 3 * model.GiB}, WorkerConfig{},
		replanOpts(bubble.DetectorConfig{}))
	if err := r.mgr.Submit(spec("vgg", model.VGG19, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.SetBubbleBaseline("worker0", 800*time.Millisecond, 1)
	r.mgr.Start()
	r.eng.RunFor(6 * time.Second)

	// Two collapsed windows (-75% off baseline) fire the default detector;
	// VGG's ~307ms fit exceeds the 200ms mean, so it is demoted, every
	// re-placement attempt fails admission (worker0 by fit — a stale
	// admission each try — worker1 by memory), and the budget parks it.
	for i := 0; i < 2; i++ {
		r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: r.eng.Now(), Duration: 200 * time.Millisecond})
		r.eng.RunFor(100 * time.Millisecond)
	}
	r.eng.RunFor(2 * time.Second) // exhaust the backoff ladder
	tv := taskView(t, r.mgr, "vgg")
	if !tv.Parked {
		t.Fatalf("task view = %+v, want parked (no stage fits the shrunken profile)", tv)
	}
	st := r.mgr.Stats()
	if st.ParkedTasks != 1 || st.Demotions != 1 {
		t.Fatalf("stats = %+v, want 1 parked / 1 demotion", st)
	}
	if st.StaleAdmissions != 3 {
		t.Fatalf("StaleAdmissions = %d, want 3 (one per failed re-placement attempt)", st.StaleAdmissions)
	}

	// The supply grows back: the first two windows burn the post-detection
	// hysteresis, the third fires grow and the re-plan revives the parked
	// task with a fresh restart budget.
	for i := 0; i < 3; i++ {
		r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: r.eng.Now(), Duration: 800 * time.Millisecond})
		r.eng.RunFor(100 * time.Millisecond)
	}
	tv = taskView(t, r.mgr, "vgg")
	if tv.Parked || tv.Exited {
		t.Fatalf("task view = %+v, want revived", tv)
	}
	if tv.Restarts != 0 {
		t.Fatalf("Restarts = %d, want 0 (revival grants a fresh budget)", tv.Restarts)
	}
	if st := r.mgr.Stats(); st.Revivals != 1 {
		t.Fatalf("Revivals = %d, want 1", st.Revivals)
	}
	r.eng.RunFor(6 * time.Second) // re-create + re-init
	if w, ok := r.mgr.TaskWorker("vgg"); !ok || w != "worker0" {
		t.Fatalf("TaskWorker = %q/%v, want worker0", w, ok)
	}
	h, ok := r.workers[0].Harness("vgg")
	if !ok {
		t.Fatal("revived task not re-deployed on worker0")
	}
	before := h.Counters().Steps
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: r.eng.Now(), Duration: 800 * time.Millisecond})
	r.eng.RunFor(2 * time.Second)
	if got := h.Counters().Steps; got <= before {
		t.Fatalf("revived task never stepped (%d <= %d)", got, before)
	}
}
