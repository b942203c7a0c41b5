package model

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestBubbleRateMatchesPaperShape(t *testing.T) {
	// Paper Fig. 2b: bubble rate falls slightly from 42.4% (1.2B) to 40.4%
	// (6B) at 4 stages / 4 micro-batches.
	r12 := NanoGPT1B.BubbleRateEstimate(Schedule1F1B, 4, 4, 1)
	r36 := NanoGPT3B.BubbleRateEstimate(Schedule1F1B, 4, 4, 1)
	r60 := NanoGPT6B.BubbleRateEstimate(Schedule1F1B, 4, 4, 1)
	if !(r12 > r36 && r36 > r60) {
		t.Fatalf("bubble rates not decreasing with model size: %v %v %v", r12, r36, r60)
	}
	if math.Abs(r12-0.424) > 0.02 {
		t.Fatalf("1.2B bubble rate = %v, want ~0.424", r12)
	}
	if math.Abs(r60-0.404) > 0.02 {
		t.Fatalf("6B bubble rate = %v, want ~0.404", r60)
	}
}

func TestBubbleRateDropsWithMicroBatches(t *testing.T) {
	// Paper §2.2.2: micro-batch count 8 gives ~26.2%.
	r8 := NanoGPT3B.BubbleRateEstimate(Schedule1F1B, 4, 8, 1)
	if math.Abs(r8-0.262) > 0.02 {
		t.Fatalf("micro-batch-8 bubble rate = %v, want ~0.262", r8)
	}
}

func TestBubbleRateEstimateDispatchesOnSchedule(t *testing.T) {
	m := NanoGPT3B
	f, b, opt := m.FPPerMB, m.BPPerMB, m.OptStep
	for _, S := range []int{2, 4, 8} {
		for _, M := range []int{4, 8, 16} {
			busy := time.Duration(M)*(f+b) + opt
			fill1 := time.Duration(S-1) * (f + b)
			r1 := m.BubbleRateEstimate(Schedule1F1B, S, M, 1)
			if want := float64(fill1) / float64(fill1+busy); math.Abs(r1-want) > 1e-12 {
				t.Errorf("1f1b S=%d M=%d: %v, want %v", S, M, r1, want)
			}
			// GPipe and 1F1B share the closed-form mean idle; they differ in
			// memory and bubble microstructure, not fill overhead.
			if rg := m.BubbleRateEstimate(ScheduleGPipe, S, M, 1); rg != r1 {
				t.Errorf("gpipe S=%d M=%d: %v != 1f1b %v", S, M, rg, r1)
			}
			// Interleaving with V chunks divides the fill overhead by V
			// (the Megatron ideal, SNIPPETS.md snippet 3).
			for _, V := range []int{2, 4} {
				fillV := time.Duration(S-1) * (f + b) / time.Duration(V)
				rv := m.BubbleRateEstimate(ScheduleInterleaved, S, M, V)
				if want := float64(fillV) / float64(fillV+busy); math.Abs(rv-want) > 1e-12 {
					t.Errorf("interleaved S=%d M=%d V=%d: %v, want %v", S, M, V, rv, want)
				}
				if rv >= r1 {
					t.Errorf("interleaved S=%d M=%d V=%d rate %v not < 1f1b %v", S, M, V, rv, r1)
				}
			}
			// Zero-bubble keeps the (S-1)·FP warmup cascade plus a
			// GPipe-like drain penalty when M < S.
			fillZ := time.Duration(S-1) * f
			if M < S {
				fillZ += time.Duration(S-M) * f
			}
			rz := m.BubbleRateEstimate(ScheduleZeroBubble, S, M, 1)
			if want := float64(fillZ) / float64(fillZ+busy); math.Abs(rz-want) > 1e-12 {
				t.Errorf("zero-bubble S=%d M=%d: %v, want %v", S, M, rz, want)
			}
			if rz >= r1 {
				t.Errorf("zero-bubble S=%d M=%d rate %v not < 1f1b %v", S, M, rz, r1)
			}
			if M >= S && rz >= r1/2 {
				t.Errorf("zero-bubble S=%d M=%d rate %v not well below 1f1b %v", S, M, rz, r1)
			}
		}
	}
	// Rate → 0 as M grows.
	if r := m.BubbleRateEstimate(ScheduleZeroBubble, 4, 256, 1); r > 0.01 {
		t.Errorf("zero-bubble M=256 rate = %v, want ≈0", r)
	}
	if m.BubbleRateEstimate(Schedule1F1B, 1, 4, 1) != 0 {
		t.Error("single stage must have zero estimated bubbles")
	}
}

func TestStageMemUsedSchedShapes(t *testing.T) {
	m := NanoGPT3B
	S, M := 4, 8
	// GPipe stage memory is stage-independent (all M in flight) and larger
	// than 1F1B everywhere but the last... and OOMs Server-I at M=8.
	for s := 0; s < S; s++ {
		g := m.StageMemUsedSched(ScheduleGPipe, s, S, M, 1)
		o := m.StageMemUsedSched(Schedule1F1B, s, S, M, 1)
		if g < o {
			t.Errorf("gpipe stage %d mem %d < 1f1b %d", s, g, o)
		}
		if g != m.StageMemUsedSched(ScheduleGPipe, 0, S, M, 1) {
			t.Errorf("gpipe stage %d mem not uniform", s)
		}
	}
	if g := m.StageMemUsedSched(ScheduleGPipe, 0, S, M, 1); g <= ServerI.GPUMemBytes {
		t.Errorf("gpipe M=8 stage mem %d should exceed Server-I %d", g, ServerI.GPUMemBytes)
	}
	// Zero-bubble defers every W, so activations pile up to GPipe's
	// footprint — the memory price of the near-zero bubble.
	for s := 0; s < S; s++ {
		z := m.StageMemUsedSched(ScheduleZeroBubble, s, S, M, 1)
		g := m.StageMemUsedSched(ScheduleGPipe, s, S, M, 1)
		if z != g {
			t.Errorf("zero-bubble stage %d mem %d != gpipe %d", s, z, g)
		}
	}
	// Interleaved V=2: weights unchanged, chunk activations at 1/V size.
	v2 := m.StageMemUsedSched(ScheduleInterleaved, 0, S, M, 2)
	v1 := m.StageMemUsedSched(Schedule1F1B, 0, S, M, 1)
	// Stage 0, V=2: chunks 0 and 4 hold min(M,8)=8 and min(M,4)=4
	// half-size activations — 12 halves vs 1F1B's 4 full ones.
	if want := v1 - 4*m.ActMemPerMB + 12*(m.ActMemPerMB/2); v2 != want {
		t.Errorf("interleaved stage-0 mem = %d, want %d", v2, want)
	}
	// 1F1B with virtual == 1 must be the historic arithmetic, bit-exact.
	for s := 0; s < S; s++ {
		if m.StageMemUsedSched(Schedule1F1B, s, S, M, 1) != m.StageMemUsed(s, S, M) {
			t.Errorf("stage %d: StageMemUsedSched(1f1b,V=1) diverged from StageMemUsed", s)
		}
	}
}

func TestScheduleParseRoundTrip(t *testing.T) {
	for _, s := range AllSchedules() {
		got, err := ParseSchedule(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSchedule(%q) = %v/%v", s.String(), got, err)
		}
	}
	if _, err := ParseSchedule("pipedream"); err == nil {
		t.Error("unknown schedule name accepted")
	}
}

func TestEpochTimeDecreasesWithModelSize(t *testing.T) {
	// Paper Fig. 2b: per-epoch time decreases as models grow (memory-capped
	// micro-batches shrink).
	e12 := NanoGPT1B.EpochSpan(4, 4)
	e36 := NanoGPT3B.EpochSpan(4, 4)
	e60 := NanoGPT6B.EpochSpan(4, 4)
	if !(e12 > e36 && e36 > e60) {
		t.Fatalf("epoch spans not decreasing: %v %v %v", e12, e36, e60)
	}
}

func TestStageMemoryDecreasesWithStage(t *testing.T) {
	// Paper Fig. 1b: stage 0 uses the most memory.
	prev := int64(math.MaxInt64)
	for s := 0; s < 4; s++ {
		used := NanoGPT3B.StageMemUsed(s, 4, 4)
		if used >= prev {
			t.Fatalf("stage %d memory %d not < previous %d", s, used, prev)
		}
		prev = used
	}
}

func TestStageMemAvailableRange(t *testing.T) {
	// Paper §2.2.1: available memory spans <3 GB to >20 GB for 3.6B.
	avail0 := NanoGPT3B.StageMemAvailable(48*GiB, 0, 4, 4)
	avail3 := NanoGPT3B.StageMemAvailable(48*GiB, 3, 4, 4)
	if avail0 > 3*GiB+GiB/10 {
		t.Fatalf("stage 0 available = %.2f GiB, want ≈<3 GiB", float64(avail0)/float64(GiB))
	}
	if avail3 < 20*GiB {
		t.Fatalf("stage 3 available = %.2f GiB, want >20 GiB", float64(avail3)/float64(GiB))
	}
}

func TestAvailableMemoryShrinksWithModelSize(t *testing.T) {
	// Paper Fig. 2a: larger models leave less bubble memory (late stages).
	a12 := NanoGPT1B.StageMemAvailable(48*GiB, 3, 4, 4)
	a36 := NanoGPT3B.StageMemAvailable(48*GiB, 3, 4, 4)
	a60 := NanoGPT6B.StageMemAvailable(48*GiB, 3, 4, 4)
	if !(a12 > a36 && a36 > a60) {
		t.Fatalf("stage-3 available not decreasing: %d %d %d", a12, a36, a60)
	}
}

func TestMicroBatchCountDoesNotChangeStageMemory(t *testing.T) {
	// 1F1B caps in-flight activations at min(M, S-s): going from M=4 to
	// M=8 must not change stage-0 memory (S=4).
	m4 := NanoGPT3B.StageMemUsed(0, 4, 4)
	m8 := NanoGPT3B.StageMemUsed(0, 4, 8)
	if m4 != m8 {
		t.Fatalf("stage-0 memory changed with micro-batch count: %d vs %d", m4, m8)
	}
}

func TestLLMByName(t *testing.T) {
	for _, name := range []string{"nanogpt-3.6b", "3.6", "3.6b", "3.6B"} {
		m, err := LLMByName(name)
		if err != nil || m.ParamsB != 3.6 {
			t.Fatalf("LLMByName(%q) = %v/%v", name, m.Name, err)
		}
	}
	if _, err := LLMByName("gpt5"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestTaskByName(t *testing.T) {
	for _, p := range TaskProfiles {
		got, err := TaskByName(p.Name)
		if err != nil || got.Name != p.Name {
			t.Fatalf("TaskByName(%q) failed: %v", p.Name, err)
		}
	}
	if _, err := TaskByName("bitcoin-miner"); err == nil {
		t.Fatal("unknown task accepted")
	}
}

func TestTaskMemoryVsStageAvailability(t *testing.T) {
	// The paper's Fig. 9 placement outcomes: ResNet18 and PageRank fit all
	// stages; ResNet50 and Graph SGD miss stage 0; VGG19 and Image miss
	// stages 0 and 1.
	avail := make([]int64, 4)
	for s := range avail {
		avail[s] = NanoGPT3B.StageMemAvailable(48*GiB, s, 4, 4)
	}
	fits := func(task TaskProfile, stage int) bool { return task.MemBytes <= avail[stage] }
	tests := []struct {
		task      TaskProfile
		wantStage []bool
	}{
		{ResNet18, []bool{true, true, true, true}},
		{PageRank, []bool{true, true, true, true}},
		{ResNet50, []bool{false, true, true, true}},
		{GraphSGD, []bool{false, true, true, true}},
		{VGG19, []bool{false, false, true, true}},
		{Image, []bool{false, false, true, true}},
	}
	for _, tc := range tests {
		for s, want := range tc.wantStage {
			if got := fits(tc.task, s); got != want {
				t.Errorf("%s fits stage %d = %v, want %v (task %.2f GiB, avail %.2f GiB)",
					tc.task.Name, s, got, want,
					float64(tc.task.MemBytes)/float64(GiB), float64(avail[s])/float64(GiB))
			}
		}
	}
}

func TestWithBatchScaling(t *testing.T) {
	b64 := ResNet18.WithBatch(64)
	if b64.StepTime != ResNet18.StepTime {
		t.Fatalf("default batch rescaled: %v vs %v", b64.StepTime, ResNet18.StepTime)
	}
	b128 := ResNet18.WithBatch(128)
	if b128.StepTime <= ResNet18.StepTime {
		t.Fatal("batch 128 step not longer than batch 64")
	}
	if b128.MemBytes <= ResNet18.MemBytes {
		t.Fatal("batch 128 memory not larger than batch 64")
	}
	b16 := ResNet18.WithBatch(16)
	if b16.StepTime >= ResNet18.StepTime || b16.MemBytes >= ResNet18.MemBytes {
		t.Fatal("batch 16 not smaller than batch 64")
	}
	// Consistency: the batch-64 reconstruction matches the headline profile
	// within rounding.
	recon := ResNet18.StepTimeFixed + 64*ResNet18.StepTimePerSmp
	if d := recon - ResNet18.StepTime; d > time.Millisecond || d < -time.Millisecond {
		t.Fatalf("batch model inconsistent with StepTime: %v vs %v", recon, ResNet18.StepTime)
	}
}

func TestWithBatchNoopForNonScalable(t *testing.T) {
	p := PageRank.WithBatch(128)
	if p.Name != PageRank.Name || p.StepTime != PageRank.StepTime {
		t.Fatal("non-scalable task was rescaled")
	}
}

func TestVGGOOMOnServerIIAtLargeBatch(t *testing.T) {
	// Paper Fig. 7b marks OOM for large batches on Server-II (10 GB).
	if _, ok := VGG19.WithBatch(64).StepTimeOn(ServerII); !ok {
		t.Fatal("VGG19 batch 64 should fit Server-II")
	}
	if _, ok := VGG19.WithBatch(96).StepTimeOn(ServerII); ok {
		t.Fatal("VGG19 batch 96 should OOM on Server-II")
	}
	if _, ok := VGG19.WithBatch(128).StepTimeOn(ServerII); ok {
		t.Fatal("VGG19 batch 128 should OOM on Server-II")
	}
}

func TestThroughputOrdering(t *testing.T) {
	// Server-I > Server-II > CPU for every task (Table 1's platform order).
	for _, task := range TaskProfiles {
		thI := task.ThroughputOn(ServerI)
		thII := task.ThroughputOn(ServerII)
		thCPU := task.ThroughputOn(ServerCPU)
		if !(thI > thII && thII > thCPU && thCPU > 0) {
			t.Errorf("%s throughput ordering violated: I=%v II=%v CPU=%v",
				task.Name, thI, thII, thCPU)
		}
	}
}

func TestEpochSpanComponents(t *testing.T) {
	// EpochSpan = (S-1)(FP+BP) + M(FP+BP) + Opt for the calibrated models.
	m := NanoGPT3B
	want := 3*(m.FPPerMB+m.BPPerMB) + 4*(m.FPPerMB+m.BPPerMB) + m.OptStep
	if got := m.EpochSpan(4, 4); got != want {
		t.Fatalf("EpochSpan = %v, want %v", got, want)
	}
}

// TestTaskProfileValidate refuses every malformed profile field, one field
// per case, and accepts every built-in profile and a ResNet18 copy that is
// not batch-scalable.
func TestTaskProfileValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(p *TaskProfile)
	}{
		{"zero StepTime", func(p *TaskProfile) { p.StepTime = 0 }},
		{"zero StepTime and HostOverhead", func(p *TaskProfile) { p.StepTime, p.HostOverhead = 0, 0 }},
		{"negative StepTime", func(p *TaskProfile) { p.StepTime = -time.Millisecond }},
		{"negative StepJitter", func(p *TaskProfile) { p.StepJitter = -0.1 }},
		{"StepJitter 1", func(p *TaskProfile) { p.StepJitter = 1 }},
		{"NaN StepJitter", func(p *TaskProfile) { p.StepJitter = math.NaN() }},
		{"zero Demand", func(p *TaskProfile) { p.Demand = 0 }},
		{"Demand above 1", func(p *TaskProfile) { p.Demand = 1.5 }},
		{"NaN Demand", func(p *TaskProfile) { p.Demand = math.NaN() }},
		{"negative Weight", func(p *TaskProfile) { p.Weight = -1 }},
		{"infinite Weight", func(p *TaskProfile) { p.Weight = math.Inf(1) }},
		{"NaN Weight", func(p *TaskProfile) { p.Weight = math.NaN() }},
		{"negative HostOverhead", func(p *TaskProfile) { p.HostOverhead = -1 }},
		{"negative CreateTime", func(p *TaskProfile) { p.CreateTime = -1 }},
		{"negative InitTime", func(p *TaskProfile) { p.InitTime = -1 }},
		{"negative MemBytes", func(p *TaskProfile) { p.MemBytes = -1 }},
	} {
		p := ResNet18
		tc.edit(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	fixed := ResNet18
	fixed.BatchScalable = false
	for _, p := range append(slices.Clone(TaskProfiles), fixed) {
		if err := p.Validate(); err != nil {
			t.Errorf("%s (batch-scalable %v): %v", p.Name, p.BatchScalable, err)
		}
	}
}
