package pipeline

import (
	"fmt"
	"math"
	"testing"
	"time"

	"freeride/internal/model"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

type rig struct {
	eng     *simtime.Virtual
	procs   *simproc.Runtime
	devices []*simgpu.Device
	trainer *Trainer
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	devices := make([]*simgpu.Device, cfg.Stages)
	for i := range devices {
		// Oversized devices: rig tests exercise schedule timing, not memory
		// admission (GPipe/zero-bubble hold all M activations and deep 1F1B
		// configs exceed the 48 GiB default).
		devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{
			Name: "gpu" + string(rune('0'+i)), MemBytes: 1 << 40,
		})
	}
	tr, err := New(eng, procs, devices, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &rig{eng: eng, procs: procs, devices: devices, trainer: tr}
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.trainer.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	r.eng.Drain(20_000_000)
	if !r.trainer.Done().IsSet() {
		t.Fatal("training did not complete")
	}
	if err := r.trainer.Err(); err != nil {
		t.Fatalf("training failed: %v", err)
	}
}

func TestTrainingCompletesWithExpectedSpan(t *testing.T) {
	cfg := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: 3}
	r := newRig(t, cfg)
	r.run(t)
	starts, ends := r.trainer.CycleTimes()
	if len(starts) != 3 || len(ends) != 3 {
		t.Fatalf("epochs recorded = %d/%d, want 3/3", len(starts), len(ends))
	}
	// Analytic span plus a little comm latency.
	analytic := model.NanoGPT3B.EpochSpan(4, 4)
	got := ends[0] - starts[0]
	if got < analytic || got > analytic+100*time.Millisecond {
		t.Fatalf("epoch span = %v, want within [%v, %v+100ms]", got, analytic, analytic)
	}
}

func TestEpochsAreRepetitive(t *testing.T) {
	// Paper §2.2: "epochs are repetitive and stable".
	cfg := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: 5}
	r := newRig(t, cfg)
	r.run(t)
	starts, ends := r.trainer.CycleTimes()
	first := ends[0] - starts[0]
	for e := 1; e < 5; e++ {
		span := ends[e] - starts[e]
		if span != first {
			t.Fatalf("epoch %d span %v != epoch 0 span %v", e, span, first)
		}
	}
}

func TestBubbleRateMatchesPaper(t *testing.T) {
	// The emergent per-stage idle fraction must land near the paper's 42%
	// for 3.6B / 4 stages / 4 micro-batches.
	cfg := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: 2}
	r := newRig(t, cfg)
	r.run(t)
	starts, ends := r.trainer.CycleTimes()
	span := ends[1] - starts[1]
	for s := 0; s < 4; s++ {
		busy := r.devices[s].Occupancy().Integrate(starts[1], ends[1])
		rate := 1 - busy/span.Seconds()
		if math.Abs(rate-0.42) > 0.03 {
			t.Errorf("stage %d bubble rate = %.3f, want ~0.42", s, rate)
		}
	}
}

func TestMicroBatch8DropsBubbleRate(t *testing.T) {
	cfg := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 8, Epochs: 2}
	r := newRig(t, cfg)
	r.run(t)
	starts, ends := r.trainer.CycleTimes()
	span := ends[1] - starts[1]
	busy := r.devices[0].Occupancy().Integrate(starts[1], ends[1])
	rate := 1 - busy/span.Seconds()
	if math.Abs(rate-0.262) > 0.03 {
		t.Fatalf("micro-batch-8 bubble rate = %.3f, want ~0.262", rate)
	}
}

func TestGPipeHasLargerBubbles(t *testing.T) {
	run := func(kind ScheduleKind) float64 {
		cfg := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: 1, Schedule: kind}
		r := newRig(t, cfg)
		r.run(t)
		starts, ends := r.trainer.CycleTimes()
		span := ends[0] - starts[0]
		busy := r.devices[1].Occupancy().Integrate(starts[0], ends[0])
		return 1 - busy/span.Seconds()
	}
	oneF := run(Schedule1F1B)
	gp := run(ScheduleGPipe)
	if gp <= oneF {
		t.Fatalf("GPipe bubble rate %.3f not larger than 1F1B %.3f", gp, oneF)
	}
}

func TestStageMemoryAllocated(t *testing.T) {
	cfg := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: 1}
	r := newRig(t, cfg)
	if err := r.trainer.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for s := 0; s < 4; s++ {
		want := model.NanoGPT3B.StageMemUsed(s, 4, 4)
		if got := r.devices[s].MemUsed(); got != want {
			t.Fatalf("stage %d device mem = %d, want %d", s, got, want)
		}
	}
	r.eng.Drain(20_000_000)
}

func TestOpLogDependencyOrder(t *testing.T) {
	cfg := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: 1, RecordOps: true}
	r := newRig(t, cfg)
	r.run(t)
	// Collect spans indexed by (stage, kind, mb).
	type key struct {
		s  int
		k  OpKind
		mb int
	}
	spans := map[key]OpSpan{}
	for s := 0; s < 4; s++ {
		for _, span := range r.trainer.OpLog(s) {
			spans[key{s, span.Op.Kind, span.Op.MB}] = span
		}
	}
	for m := 0; m < 4; m++ {
		for s := 1; s < 4; s++ {
			up := spans[key{s - 1, OpForward, m}]
			down := spans[key{s, OpForward, m}]
			if down.Start < up.End {
				t.Errorf("FP(%d,%d) started %v before FP(%d,%d) ended %v", s, m, down.Start, s-1, m, up.End)
			}
		}
		for s := 2; s >= 0; s-- {
			down := spans[key{s + 1, OpBackward, m}]
			up := spans[key{s, OpBackward, m}]
			if up.Start < down.End {
				t.Errorf("BP(%d,%d) started %v before BP(%d,%d) ended %v", s, m, up.Start, s+1, m, down.End)
			}
		}
		fp := spans[key{2, OpForward, m}]
		bp := spans[key{2, OpBackward, m}]
		if bp.Start < fp.End {
			t.Errorf("BP(2,%d) started before FP(2,%d) ended", m, m)
		}
	}
}

func TestTypeABubbleGrowsWithStage(t *testing.T) {
	// Paper §2.2.1: start-of-epoch Type-A bubble duration increases from
	// stage 0 to stage 3 (cascading FP dependency).
	cfg := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: 1, RecordOps: true}
	r := newRig(t, cfg)
	r.run(t)
	starts, _ := r.trainer.CycleTimes()
	prev := time.Duration(-1)
	for s := 0; s < 4; s++ {
		log := r.trainer.OpLog(s)
		lead := log[0].Start - starts[0]
		if lead <= prev {
			t.Fatalf("stage %d lead-in bubble %v not > stage %d's %v", s, lead, s-1, prev)
		}
		prev = lead
	}
}

func TestTrainerValidation(t *testing.T) {
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{})
	if _, err := New(eng, procs, []*simgpu.Device{dev}, Config{Stages: 2, MicroBatches: 4, Epochs: 1, Model: model.NanoGPT3B}); err == nil {
		t.Fatal("device/stage mismatch accepted")
	}
	if _, err := New(eng, procs, nil, Config{Stages: 0, MicroBatches: 4, Epochs: 1}); err == nil {
		t.Fatal("zero stages accepted")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	cfg := Config{Model: model.NanoGPT3B, Stages: 2, MicroBatches: 2, Epochs: 1}
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	devices := []*simgpu.Device{
		simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "a"}),
		simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "b"}),
	}
	tr, err := New(eng, procs, devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
	eng.Drain(1_000_000)
}

func TestEpochHooksFire(t *testing.T) {
	cfg := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: 3}
	r := newRig(t, cfg)
	var started, ended []int
	r.trainer.OnCycleStart(func(e int, ts time.Duration) { started = append(started, e) })
	r.trainer.OnCycleEnd(func(e int, ts time.Duration) { ended = append(ended, e) })
	r.run(t)
	if len(started) != 3 || len(ended) != 3 {
		t.Fatalf("hooks fired %d/%d times, want 3/3", len(started), len(ended))
	}
	for i := 0; i < 3; i++ {
		if started[i] != i || ended[i] != i {
			t.Fatalf("hook order: started=%v ended=%v", started, ended)
		}
	}
}

func BenchmarkEpoch(b *testing.B) {
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	devices := make([]*simgpu.Device, 4)
	for i := range devices {
		devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "g" + string(rune('0'+i))})
	}
	tr, err := New(eng, procs, devices, Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: b.N})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := tr.Start(); err != nil {
		b.Fatal(err)
	}
	eng.Drain(0)
}

// BenchmarkEpochLadder runs the benchmark's schedule-ladder shape at S=64
// in-package, one epoch per iteration: M=128 (V=2 for interleaved) on
// trace-less devices, the 3.6B preset's memory scaled by 4/S and 4/M so
// the hold-all-M schedules fit. Its 64–128 chunks are what BenchmarkEpoch's
// four are too few to show: a stage machine's per-op state leaves the cache
// between two of its ops.
func BenchmarkEpochLadder(b *testing.B) {
	const stages, mbs = 64, 128
	m := model.NanoGPT3B
	m.WeightMemPerStage = m.WeightMemPerStage * 4 / stages
	m.ActMemPerMB = m.ActMemPerMB * 4 / mbs
	for _, kind := range model.AllSchedules() {
		b.Run(kind.String(), func(b *testing.B) {
			eng := simtime.NewVirtual()
			procs := simproc.NewRuntime(eng)
			devices := make([]*simgpu.Device, stages)
			for i := range devices {
				devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{
					Name: fmt.Sprintf("gpu%d", i), MemBytes: model.ServerI.GPUMemBytes, NoTraces: true,
				})
			}
			tr, err := New(eng, procs, devices, Config{Model: m, Stages: stages, MicroBatches: mbs, Epochs: b.N, Schedule: kind})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := tr.Start(); err != nil {
				b.Fatal(err)
			}
			eng.Drain(0)
			if err := tr.Err(); err != nil || !tr.Done().IsSet() {
				b.Fatalf("%v: the run did not finish: %v", kind, err)
			}
		})
	}
}

func TestTwoStagePipeline(t *testing.T) {
	cfg := Config{Model: model.NanoGPT3B, Stages: 2, MicroBatches: 4, Epochs: 2}
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	devices := []*simgpu.Device{
		simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "a"}),
		simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "b"}),
	}
	tr, err := New(eng, procs, devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Drain(10_000_000)
	if !tr.Done().IsSet() || tr.Err() != nil {
		t.Fatalf("2-stage training failed: %v", tr.Err())
	}
	// Bubble rate ~ (S-1)/(M+S-1) = 1/5 = 20%.
	starts, ends := tr.CycleTimes()
	span := ends[1] - starts[1]
	busy := devices[0].Occupancy().Integrate(starts[1], ends[1])
	rate := 1 - busy/span.Seconds()
	if rate < 0.12 || rate > 0.28 {
		t.Fatalf("2-stage bubble rate = %.3f, want ~0.20", rate)
	}
}

func TestEightStagePipeline(t *testing.T) {
	cfg := Config{Model: model.NanoGPT3B, Stages: 8, MicroBatches: 4, Epochs: 1}
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	devices := make([]*simgpu.Device, 8)
	for i := range devices {
		devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "g" + string(rune('0'+i))})
	}
	tr, err := New(eng, procs, devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Drain(20_000_000)
	if !tr.Done().IsSet() || tr.Err() != nil {
		t.Fatalf("8-stage training failed: %v", tr.Err())
	}
	// Deeper pipelines have a higher bubble rate: (S-1)/(M+S-1) = 7/11.
	starts, ends := tr.CycleTimes()
	span := ends[0] - starts[0]
	busy := devices[0].Occupancy().Integrate(starts[0], ends[0])
	rate := 1 - busy/span.Seconds()
	if rate < 0.5 {
		t.Fatalf("8-stage bubble rate = %.3f, want > 0.5", rate)
	}
}

func TestSingleStageNoBubbles(t *testing.T) {
	cfg := Config{Model: model.NanoGPT3B, Stages: 1, MicroBatches: 4, Epochs: 1}
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	devices := []*simgpu.Device{simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "solo"})}
	tr, err := New(eng, procs, devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Drain(10_000_000)
	starts, ends := tr.CycleTimes()
	span := ends[0] - starts[0]
	busy := devices[0].Occupancy().Integrate(starts[0], ends[0])
	rate := 1 - busy/span.Seconds()
	if rate > 0.01 {
		t.Fatalf("single-stage bubble rate = %.3f, want ~0 (no pipeline, no bubbles)", rate)
	}
}

func TestTrainingFailsCleanlyOnInsufficientMemory(t *testing.T) {
	// Devices too small for the model: Start reports the OOM.
	cfg := Config{Model: model.NanoGPT6B, Stages: 2, MicroBatches: 4, Epochs: 1}
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	devices := []*simgpu.Device{
		simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "tiny0", MemBytes: 8 << 30}),
		simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "tiny1", MemBytes: 8 << 30}),
	}
	tr, err := New(eng, procs, devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err == nil {
		t.Fatal("Start succeeded on 8GB devices for a 6B model")
	}
}

func TestInterleavedScheduleReducesBubbles(t *testing.T) {
	// Megatron-style virtual stages (the bubble-reduction approach of the
	// paper's related work): with V chunks per GPU, the per-stage bubble
	// rate should drop well below plain 1F1B's ~42% — roughly toward
	// (S-1)/(V·M + S-1).
	run := func(virtual int) float64 {
		cfg := Config{
			Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4,
			Epochs: 2, VirtualPerStage: virtual,
		}
		r := newRig(t, cfg)
		r.run(t)
		starts, ends := r.trainer.CycleTimes()
		span := ends[1] - starts[1]
		busy := r.devices[1].Occupancy().Integrate(starts[1], ends[1])
		return 1 - busy/span.Seconds()
	}
	plain := run(1)
	interleaved := run(2)
	if interleaved >= plain-0.05 {
		t.Fatalf("interleaving did not reduce bubbles: plain %.3f vs V=2 %.3f", plain, interleaved)
	}
	if interleaved < 0.10 || interleaved > 0.40 {
		t.Fatalf("V=2 bubble rate = %.3f, outside plausible band", interleaved)
	}
}

func TestInterleavedSameComputePerDevice(t *testing.T) {
	// Chunking must conserve total per-device work: the same SM-seconds
	// flow through each GPU regardless of V.
	run := func(virtual int) float64 {
		cfg := Config{
			Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4,
			Epochs: 1, VirtualPerStage: virtual,
		}
		r := newRig(t, cfg)
		r.run(t)
		return r.devices[2].WorkDone()
	}
	w1 := run(1)
	w2 := run(2)
	diff := w1 - w2
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.01*w1 {
		t.Fatalf("per-device work differs: V=1 %.3f vs V=2 %.3f", w1, w2)
	}
}

// simBubbleRate runs one training config and returns the per-stage bubble
// rate averaged across stages (occupancy-integrated over epoch 1).
func simBubbleRate(t *testing.T, kind ScheduleKind, stages, mbs, virtual int) float64 {
	t.Helper()
	cfg := Config{
		Model: model.NanoGPT3B, Stages: stages, MicroBatches: mbs,
		Epochs: 2, Schedule: kind, VirtualPerStage: virtual,
	}
	r := newRig(t, cfg)
	r.run(t)
	starts, ends := r.trainer.CycleTimes()
	span := ends[1] - starts[1]
	var sum float64
	for s := 0; s < stages; s++ {
		busy := r.devices[s].Occupancy().Integrate(starts[1], ends[1])
		sum += 1 - busy/span.Seconds()
	}
	return sum / float64(stages)
}

// The schedule-zoo acceptance pin: across every schedule × stages {2,4,8} ×
// micro-batches {4,8,16}, the simulated bubble ratio matches the closed-form
// BubbleRateEstimate. The V=1 schedules match within 0.01 (the residue is
// the 2 ms comm latency). Interleaved chunks contend for the shared device,
// so its Megatron-ideal closed form is a lower bound: the simulation must
// sit above it, within a bounded contention overhead in the steady regime
// (M ≥ S·V), and always below plain 1F1B.
func TestEstimateMatchesSimulatedBubbleRatio(t *testing.T) {
	m := model.NanoGPT3B
	for _, S := range []int{2, 4, 8} {
		for _, M := range []int{4, 8, 16} {
			oneF := simBubbleRate(t, Schedule1F1B, S, M, 1)
			for _, kind := range []ScheduleKind{Schedule1F1B, ScheduleGPipe, ScheduleZeroBubble} {
				sim := oneF
				if kind != Schedule1F1B {
					sim = simBubbleRate(t, kind, S, M, 1)
				}
				est := m.BubbleRateEstimate(kind, S, M, 1)
				if math.Abs(sim-est) > 0.01 {
					t.Errorf("%v S=%d M=%d: sim %.4f vs est %.4f", kind, S, M, sim, est)
				}
			}
			V := 2
			sim := simBubbleRate(t, ScheduleInterleaved, S, M, V)
			est := m.BubbleRateEstimate(ScheduleInterleaved, S, M, V)
			if sim < est-0.005 {
				t.Errorf("interleaved S=%d M=%d: sim %.4f below ideal bound %.4f", S, M, sim, est)
			}
			if sim >= oneF {
				t.Errorf("interleaved S=%d M=%d: sim %.4f not below 1F1B %.4f", S, M, sim, oneF)
			}
			if M >= S*V && sim-est > 0.08 {
				t.Errorf("interleaved S=%d M=%d: contention overhead %.4f above bound", S, M, sim-est)
			}
		}
	}
}

func TestZeroBubbleScheduleNearFloor(t *testing.T) {
	// The B/W split leaves only the (S-1)·FP warmup cascade un-fillable:
	// at S=4/M=8 the bubble rate collapses from 1F1B's ~27% to ~11%.
	zb := simBubbleRate(t, ScheduleZeroBubble, 4, 8, 1)
	oneF := simBubbleRate(t, Schedule1F1B, 4, 8, 1)
	if zb >= oneF/2 {
		t.Fatalf("zero-bubble rate %.4f not well below 1F1B %.4f", zb, oneF)
	}
	m := model.NanoGPT3B
	fill := 3 * m.FPPerMB
	busy := 8*(m.FPPerMB+m.BPPerMB) + m.OptStep
	floor := float64(fill) / float64(fill+busy)
	if math.Abs(zb-floor) > 0.01 {
		t.Fatalf("zero-bubble rate %.4f vs (S-1)·FP floor %.4f", zb, floor)
	}
}

func TestZeroBubbleOpLogShape(t *testing.T) {
	cfg := Config{
		Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: 1,
		Schedule: ScheduleZeroBubble, RecordOps: true,
	}
	r := newRig(t, cfg)
	r.run(t)
	for s := 0; s < 4; s++ {
		log := r.trainer.OpLog(s)
		var b, w, fused int
		for _, span := range log {
			switch span.Op.Kind {
			case OpBackwardInput:
				b++
			case OpBackwardWeight:
				w++
			case OpBackward:
				fused++
			}
		}
		if b != 4 || w != 4 || fused != 0 {
			t.Errorf("stage %d: B=%d W=%d fused=%d, want 4/4/0", s, b, w, fused)
		}
		// The optimizer barrier moved behind the deferred W tail.
		if last := log[len(log)-1].Op.Kind; last != OpOptimize {
			t.Errorf("stage %d last op %v, want OPT", s, last)
		}
		// Split halves each cost FP (BP = 2·FP for the calibrated models).
		for _, span := range log {
			if span.Op.Kind == OpBackwardInput || span.Op.Kind == OpBackwardWeight {
				if d := span.End - span.Start; d != model.NanoGPT3B.FPPerMB {
					t.Fatalf("stage %d %v took %v, want %v", s, span.Op, d, model.NanoGPT3B.FPPerMB)
				}
			}
		}
	}
}

func TestInterleavedFirstClassKind(t *testing.T) {
	// ScheduleInterleaved as a kind (virtual defaulted to 2 by normalize)
	// behaves like 1F1B+VirtualPerStage — and beats plain 1F1B's bubbles.
	cfg := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: 2,
		Schedule: ScheduleInterleaved}
	r := newRig(t, cfg)
	if got := r.trainer.Config().VirtualPerStage; got != 2 {
		t.Fatalf("interleaved defaulted V=%d, want 2", got)
	}
	r.run(t)
	starts, ends := r.trainer.CycleTimes()
	span := ends[1] - starts[1]
	busy := r.devices[1].Occupancy().Integrate(starts[1], ends[1])
	rate := 1 - busy/span.Seconds()
	plain := simBubbleRate(t, Schedule1F1B, 4, 4, 1)
	if rate >= plain-0.05 {
		t.Fatalf("interleaved kind rate %.4f not below 1F1B %.4f", rate, plain)
	}
}

func TestInterleavedOpLogDependencies(t *testing.T) {
	// FP of chunk v must still follow FP of chunk v-1 for each micro-batch
	// (verified through the virtual latches by completion of training, and
	// spot-checked on the device logs: ops from both chunks interleave).
	cfg := Config{
		Model: model.NanoGPT3B, Stages: 2, MicroBatches: 2,
		Epochs: 1, VirtualPerStage: 2, RecordOps: true,
	}
	r := newRig(t, cfg)
	r.run(t)
	// Each device log holds ops from 2 chunks: 2 chunks × (2 FP + 2 BP + OPT).
	for s := 0; s < 2; s++ {
		log := r.trainer.OpLog(s)
		if len(log) != 2*(2+2+1) {
			t.Fatalf("device %d logged %d ops, want 10", s, len(log))
		}
	}
}
