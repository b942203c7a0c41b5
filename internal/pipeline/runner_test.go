package pipeline

import (
	"fmt"
	"testing"
	"time"

	"freeride/internal/model"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// TestChunkLabelsMatchSprintf pins the strconv-built kernel names to the
// fmt.Sprintf forms they replaced, for every op of every schedule kind.
func TestChunkLabelsMatchSprintf(t *testing.T) {
	for _, kind := range []ScheduleKind{Schedule1F1B, ScheduleGPipe, ScheduleInterleaved, ScheduleZeroBubble} {
		v := 1
		if kind == ScheduleInterleaved {
			v = 2
		}
		plan, err := BuildPlan(kind, 12, 128, v)
		if err != nil {
			t.Fatal(err)
		}
		for c, ops := range plan.Chunks {
			phys := c % plan.Stages
			train := chunkLabels(phys, ops, "")
			infer := chunkLabels(phys, ops, "infer")
			for i, op := range ops {
				if want := fmt.Sprintf("s%d-%v-%d", phys, op.Kind, op.MB); train[i] != want {
					t.Fatalf("%v chunk %d op %d: label %q, want %q", kind, c, i, train[i], want)
				}
				if want := fmt.Sprintf("s%d-infer-%d", phys, op.MB); infer[i] != want {
					t.Fatalf("%v chunk %d op %d: label %q, want %q", kind, c, i, infer[i], want)
				}
			}
		}
	}
}

// quietRig is newRig on trace-less devices: nothing but the stage machines
// and the engine's pooled timers runs per op.
func quietRig(t testing.TB, cfg Config) *rig {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	devices := make([]*simgpu.Device, cfg.Stages)
	for i := range devices {
		devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{
			Name: fmt.Sprintf("gpu%d", i), MemBytes: 1 << 40, NoTraces: true,
		})
	}
	tr, err := New(eng, procs, devices, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &rig{eng: eng, procs: procs, devices: devices, trainer: tr}
}

// warmEngine grows every calendar-wheel bucket and the detached-timer
// free-list of a fresh engine past what a 16-stage run needs: a burst of
// no-op events in every half-millisecond of the wheel horizon, fired during
// the first simulated 300ms. The wheel's amortised bucket growth is the
// engine's own (it decays over tens of epochs as deadlines drift across
// slots) and would otherwise mask what the alloc pins measure.
func warmEngine(eng *simtime.Virtual) {
	for d := time.Duration(0); d < 300*time.Millisecond; d += 500 * time.Microsecond {
		for i := 0; i < 48; i++ {
			eng.ScheduleDetached(d, "warm", func() {})
		}
	}
}

// TestSteadyStateEpochAllocFree pins the plan runner: once the kernel pools,
// timer free-list and cycle-waiter lists are warm, a whole epoch — every
// dependency wait and wake, transfer sleep, kernel and the epoch barrier —
// allocates nothing.
func TestSteadyStateEpochAllocFree(t *testing.T) {
	for _, kind := range []ScheduleKind{Schedule1F1B, ScheduleZeroBubble} {
		r := quietRig(t, Config{
			Model: model.NanoGPT3B, Stages: 16, MicroBatches: 32, Epochs: 8, Schedule: kind,
		})
		warmEngine(r.eng)
		epochs := 0
		r.trainer.OnCycleEnd(func(int, time.Duration) { epochs++ })
		if err := r.trainer.Start(); err != nil {
			t.Fatal(err)
		}
		runEpoch := func() {
			for target := epochs + 1; epochs < target; {
				if !r.eng.Step() {
					t.Fatalf("%v: engine ran dry after %d epochs", kind, epochs)
				}
			}
		}
		runEpoch()
		runEpoch()
		if allocs := testing.AllocsPerRun(4, runEpoch); allocs != 0 {
			t.Errorf("%v: a steady-state epoch allocates %.0f objects, want 0", kind, allocs)
		}
		if err := r.trainer.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedStartReleasesDevices: an OOM at stage s must not leave stages
// 0…s-1 holding their clients and memory.
func TestFailedStartReleasesDevices(t *testing.T) {
	cfg := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: 1}
	r := quietRig(t, cfg)
	// Give the last stage a device one byte too small.
	need := cfg.Model.StageMemUsedSched(Schedule1F1B, 3, 4, 4, 1)
	r.devices[3] = simgpu.NewDevice(r.eng, simgpu.DeviceConfig{Name: "small", MemBytes: need - 1})
	tr, err := New(r.eng, r.procs, r.devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err == nil {
		t.Fatal("Start succeeded on an undersized device")
	}
	for s, d := range r.devices {
		if d.MemUsed() != 0 {
			t.Errorf("stage %d: %d bytes still allocated after a failed Start", s, d.MemUsed())
		}
		if _, err := d.NewClient(simgpu.ClientConfig{Name: fmt.Sprintf("train-s%d", s)}); err != nil {
			t.Errorf("stage %d: training client still registered: %v", s, err)
		}
	}
}

// TestRunnerBesideGoroutineShell drives the unguarded scoreboard the way a
// custom-task session does: a goroutine-shell process keeps taking the
// dispatcher over and handing it back while the stage machines run. The
// shell is a coroutine of the dispatcher, so the engine stays single-owner.
// Under -race this is the check of the runner's single-owner claim.
func TestRunnerBesideGoroutineShell(t *testing.T) { runBesideShell(t, false) }

// TestRunnerUnderEscalatedEngine is the same session on an engine escalated
// by hand, as a live connection would: every Guard around the scoreboard is
// a real mutex, and the scoreboard itself still carries none.
func TestRunnerUnderEscalatedEngine(t *testing.T) { runBesideShell(t, true) }

// runBesideShell runs an interleaved session with a blocking side task on
// stage 1's device and checks the engine's regime at the end and the op
// order against the same session alone.
func runBesideShell(t *testing.T, escalate bool) {
	t.Helper()
	base := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 8, Epochs: 3, Schedule: ScheduleInterleaved}
	plain := newRig(t, base)
	plain.run(t)

	r := newRig(t, base)
	if escalate {
		simtime.EscalateShared(r.eng)
	}
	c, err := r.devices[1].NewClient(simgpu.ClientConfig{Name: "side"})
	if err != nil {
		t.Fatal(err)
	}
	r.procs.Spawn("side-task", func(p *simproc.Process) error {
		spec := &simgpu.KernelSpec{Name: "side", Duration: 3 * time.Millisecond, Demand: 0.2, Weight: 0.2}
		for !r.trainer.Done().IsSet() {
			if err := c.Exec(p, spec); err != nil {
				return err
			}
			p.Sleep(time.Millisecond)
		}
		return nil
	})
	r.run(t)
	if r.eng.Shared() != escalate {
		t.Fatalf("engine shared = %v after the run, want %v (a shell must not escalate)", r.eng.Shared(), escalate)
	}
	// The side task contends for a device, so times move; the op order every
	// stage executes must not.
	for s := 0; s < base.Stages; s++ {
		a, b := plain.trainer.OpLog(s), r.trainer.OpLog(s)
		if len(a) != len(b) {
			t.Fatalf("stage %d: %d ops vs %d", s, len(a), len(b))
		}
		for i := range a {
			if a[i].Op != b[i].Op {
				t.Fatalf("stage %d op %d: %v vs %v", s, i, a[i].Op, b[i].Op)
			}
		}
	}
}
