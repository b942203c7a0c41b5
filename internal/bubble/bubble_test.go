package bubble

import (
	"math"
	"testing"
	"time"

	"freeride/internal/model"
	"freeride/internal/pipeline"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

func trainedRig(t *testing.T, llm model.LLM, mbs, epochs int) (*simtime.Virtual, *pipeline.Trainer) {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	devices := make([]*simgpu.Device, 4)
	for i := range devices {
		devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu" + string(rune('0'+i))})
	}
	tr, err := pipeline.New(eng, procs, devices, pipeline.Config{
		Model: llm, Stages: 4, MicroBatches: mbs, Epochs: epochs, RecordOps: true,
	})
	if err != nil {
		t.Fatalf("pipeline.New: %v", err)
	}
	if err := tr.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	eng.Drain(50_000_000)
	if !tr.Done().IsSet() {
		t.Fatal("training incomplete")
	}
	return eng, tr
}

func TestProfileBubbleRate(t *testing.T) {
	_, tr := trainedRig(t, model.NanoGPT3B, 4, 2)
	prof, err := ProfileTrainer(tr, 1, 0)
	if err != nil {
		t.Fatalf("ProfileTrainer: %v", err)
	}
	if r := prof.BubbleRate(); math.Abs(r-0.42) > 0.03 {
		t.Fatalf("bubble rate = %.3f, want ~0.42", r)
	}
}

func TestProfileDurationsSpanPaperRange(t *testing.T) {
	// Paper §2.2.1: durations range ~0.22s to ~1.04s for the 3.6B model.
	_, tr := trainedRig(t, model.NanoGPT3B, 4, 1)
	prof, err := ProfileTrainer(tr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := prof.Durations()
	if len(ds) == 0 {
		t.Fatal("no bubbles found")
	}
	minD, maxD := ds[0], ds[0]
	for _, d := range ds {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if minD < 100*time.Millisecond || minD > 400*time.Millisecond {
		t.Errorf("min bubble %v outside ~0.22s band", minD)
	}
	if maxD < 900*time.Millisecond || maxD > 1600*time.Millisecond {
		t.Errorf("max bubble %v outside ~1.04s band", maxD)
	}
}

func TestProfileTypeStructure(t *testing.T) {
	_, tr := trainedRig(t, model.NanoGPT3B, 4, 1)
	prof, err := ProfileTrainer(tr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0: "Type-A bubbles appear at the start and end of each epoch in
	// all stages except for the first stage" (paper §2.2.1) — stage 0
	// issues the first FP and retires the last BP, so it has no Type-A at
	// all; it does have the Type-B warmup wait.
	s0 := prof.Stages[0]
	var s0A, s0B int
	for _, tpl := range s0.Templates {
		switch tpl.Type {
		case TypeA:
			s0A++
		case TypeB:
			s0B++
		}
		if tpl.Offset < 0 || tpl.Offset+tpl.Duration > prof.EpochSpan {
			t.Errorf("template %+v outside epoch span %v", tpl, prof.EpochSpan)
		}
	}
	if s0B != 1 {
		t.Errorf("stage 0 Type-B count = %d, want 1", s0B)
	}
	if s0A != 0 {
		t.Errorf("stage 0 Type-A count = %d, want 0", s0A)
	}
	// Stage 3 (last): no Type-B; lead-in Type-A present.
	s3 := prof.Stages[3]
	for _, tpl := range s3.Templates {
		if tpl.Type == TypeB {
			t.Errorf("stage 3 has Type-B bubble %+v", tpl)
		}
	}
	if len(s3.Templates) == 0 || s3.Templates[0].Type != TypeA || s3.Templates[0].Offset != 0 {
		t.Errorf("stage 3 first bubble = %+v, want lead-in Type-A at offset 0", s3.Templates)
	}
}

func TestTypeABubbleDurationIncreasesWithStage(t *testing.T) {
	// Paper: "The duration increases for Type-A bubbles ... from Stage 0 to
	// Stage 3" (lead-in bubbles).
	_, tr := trainedRig(t, model.NanoGPT3B, 4, 1)
	prof, _ := ProfileTrainer(tr, 0, 0)
	prev := time.Duration(0)
	for s := 1; s < 4; s++ {
		lead := prof.Stages[s].Templates[0]
		if lead.Offset != 0 || lead.Type != TypeA {
			t.Fatalf("stage %d first template %+v not a lead-in Type-A", s, lead)
		}
		if lead.Duration <= prev {
			t.Fatalf("stage %d lead-in %v not > stage %d", s, lead.Duration, s-1)
		}
		prev = lead.Duration
	}
}

func TestMemAvailableIncreasesWithStage(t *testing.T) {
	_, tr := trainedRig(t, model.NanoGPT3B, 4, 1)
	prof, _ := ProfileTrainer(tr, 0, 0)
	for s := 1; s < 4; s++ {
		if prof.Stages[s].MemAvailable <= prof.Stages[s-1].MemAvailable {
			t.Fatalf("stage %d available %d not > stage %d's %d",
				s, prof.Stages[s].MemAvailable, s-1, prof.Stages[s-1].MemAvailable)
		}
	}
	if prof.Stages[0].MemAvailable > 3*model.GiB+model.GiB/10 {
		t.Fatalf("stage 0 available = %d, want <~3 GiB", prof.Stages[0].MemAvailable)
	}
	if prof.Stages[3].MemAvailable < 20*model.GiB {
		t.Fatalf("stage 3 available = %d, want >20 GiB", prof.Stages[3].MemAvailable)
	}
}

func TestBubblesDoNotOverlapOps(t *testing.T) {
	// Property: every profiled bubble lies strictly within op gaps — no
	// overlap with any recorded op on the same stage.
	_, tr := trainedRig(t, model.NanoGPT3B, 4, 2)
	prof, _ := ProfileTrainer(tr, 1, 0)
	starts, _ := tr.CycleTimes()
	anchor := starts[1]
	for s, sp := range prof.Stages {
		for _, tpl := range sp.Templates {
			b0 := anchor + tpl.Offset
			b1 := b0 + tpl.Duration
			for _, op := range tr.OpLog(s) {
				if op.Start < b1 && b0 < op.End {
					t.Fatalf("stage %d bubble [%v,%v) overlaps op %+v", s, b0, b1, op)
				}
			}
		}
	}
}

func TestProfileUnprofiledEpochFails(t *testing.T) {
	_, tr := trainedRig(t, model.NanoGPT3B, 4, 1)
	if _, err := ProfileTrainer(tr, 5, 0); err == nil {
		t.Fatal("profiling an unfinished epoch succeeded")
	}
}

func TestReporterStampsTemplates(t *testing.T) {
	_, tr := trainedRig(t, model.NanoGPT3B, 4, 1)
	prof, _ := ProfileTrainer(tr, 0, 0)
	rep := NewReporter(prof, 10*time.Millisecond)
	var got []Bubble
	rep.SetSink(func(b Bubble) { got = append(got, b) })
	rep.EmitEpoch(100 * time.Second)
	want := 0
	for _, sp := range prof.Stages {
		want += len(sp.Templates)
	}
	if len(got) != want {
		t.Fatalf("reported %d bubbles, want %d", len(got), want)
	}
	for _, b := range got {
		if b.Start < 100*time.Second {
			t.Fatalf("bubble %+v starts before epoch anchor", b)
		}
		if b.Duration <= 0 {
			t.Fatalf("bubble %+v has nonpositive duration", b)
		}
	}
}

func TestReporterSafetyMarginShrinks(t *testing.T) {
	prof := &Profile{
		EpochSpan: time.Second,
		Stages: []StageProfile{{
			Stage: 0,
			Templates: []Template{
				{Stage: 0, Type: TypeA, Offset: 0, Duration: 100 * time.Millisecond},
				{Stage: 0, Type: TypeC, Offset: 500 * time.Millisecond, Duration: 5 * time.Millisecond},
			},
		}},
	}
	rep := NewReporter(prof, 20*time.Millisecond)
	var got []Bubble
	rep.SetSink(func(b Bubble) { got = append(got, b) })
	rep.EmitEpoch(0)
	if len(got) != 1 {
		t.Fatalf("reported %d bubbles, want 1 (margin swallows the 5ms one)", len(got))
	}
	if got[0].Duration != 80*time.Millisecond {
		t.Fatalf("duration = %v, want 80ms", got[0].Duration)
	}
}

func TestReporterAttachEmitsEveryEpoch(t *testing.T) {
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	devices := make([]*simgpu.Device, 4)
	for i := range devices {
		devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "g" + string(rune('0'+i))})
	}
	tr, err := pipeline.New(eng, procs, devices, pipeline.Config{
		Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: 3, RecordOps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := &Profile{
		EpochSpan: time.Second,
		Stages: []StageProfile{{
			Stage:     1,
			Templates: []Template{{Stage: 1, Type: TypeA, Offset: 0, Duration: 100 * time.Millisecond}},
		}},
	}
	rep := NewReporter(prof, 0)
	count := 0
	rep.SetSink(func(Bubble) { count++ })
	tr.OnCycleStart(rep.CycleStart)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Drain(50_000_000)
	if count != 3 {
		t.Fatalf("sink fired %d times, want 3 (one per epoch)", count)
	}
}

func TestBubbleEnd(t *testing.T) {
	b := Bubble{Start: time.Second, Duration: 200 * time.Millisecond}
	if b.End() != 1200*time.Millisecond {
		t.Fatalf("End = %v", b.End())
	}
}

func TestTraceProfilerCrossValidatesOpLogProfiler(t *testing.T) {
	// The occupancy-trace profiler (the paper's actual mechanism) and the
	// op-log profiler must agree on totals and rates.
	_, tr := trainedRig(t, model.NanoGPT3B, 4, 2)
	fromOps, err := ProfileTrainer(tr, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fromTraces, err := ProfileFromTraces(tr, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fromOps.EpochSpan != fromTraces.EpochSpan {
		t.Fatalf("spans differ: %v vs %v", fromOps.EpochSpan, fromTraces.EpochSpan)
	}
	if math.Abs(fromOps.BubbleRate()-fromTraces.BubbleRate()) > 0.02 {
		t.Fatalf("bubble rates differ: %.4f vs %.4f", fromOps.BubbleRate(), fromTraces.BubbleRate())
	}
	for s := range fromOps.Stages {
		a := fromOps.Stages[s].BubbleTime
		b := fromTraces.Stages[s].BubbleTime
		diff := a - b
		if diff < 0 {
			diff = -diff
		}
		// The trace profiler merges gaps separated only by comm latency,
		// so small differences are expected.
		if diff > 100*time.Millisecond {
			t.Errorf("stage %d bubble time: ops %v vs traces %v", s, a, b)
		}
		if fromOps.Stages[s].MemAvailable != fromTraces.Stages[s].MemAvailable {
			t.Errorf("stage %d mem availability differs", s)
		}
	}
	// Both see the Type-B bubble on stage 0.
	hasB := func(p *Profile, stage int) bool {
		for _, tpl := range p.Stages[stage].Templates {
			if tpl.Type == TypeB {
				return true
			}
		}
		return false
	}
	if !hasB(fromOps, 0) || !hasB(fromTraces, 0) {
		t.Error("Type-B bubble missing from one profiler on stage 0")
	}
}

func TestTraceProfilerRejectsBadEpoch(t *testing.T) {
	_, tr := trainedRig(t, model.NanoGPT3B, 4, 1)
	if _, err := ProfileFromTraces(tr, 3, 0); err == nil {
		t.Fatal("unfinished epoch accepted")
	}
}
