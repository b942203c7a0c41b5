package model

import (
	"fmt"
	"math"
	"time"
)

// TaskKind groups the paper's three side-task categories (§6.1.4).
type TaskKind int

// Side-task categories.
const (
	KindTraining TaskKind = iota + 1 // model training (ResNet/VGG)
	KindGraph                        // graph analytics (PageRank, SGD MF)
	KindImage                        // image processing (resize+watermark)
)

// String implements fmt.Stringer.
func (k TaskKind) String() string {
	switch k {
	case KindTraining:
		return "training"
	case KindGraph:
		return "graph"
	case KindImage:
		return "image"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// TaskProfile is the performance model of one side task: the quantities the
// paper's automated profiler measures (§4.3) plus the GPU-sharing
// characteristics that determine its co-location interference.
type TaskProfile struct {
	// Name identifies the task ("resnet18", "pagerank", ...).
	Name string
	Kind TaskKind

	// StepTime is the solo per-step duration on the reference (Server-I
	// class) GPU. ResNet18 batch-64 is 30.4 ms (paper §2.3).
	StepTime time.Duration
	// StepJitter is the relative step-time variation (uniform ±JitterFrac);
	// occasional overruns past the profiled estimate are what give the
	// iterative interface its residual ~1% overhead.
	StepJitter float64
	// MemBytes is the GPU memory footprint (model, optimizer, buffers).
	MemBytes int64
	// Demand is the SM fraction the task's kernels occupy.
	Demand float64
	// Weight is the MPS scheduling pressure of its kernels: how hard they
	// squeeze a co-located training kernel. Graph SGD's compute intensity
	// (weight 6.5 vs the training context's 2) is what produces the
	// paper's 231% MPS overhead.
	Weight float64
	// HostOverhead is per-step CPU-side time (data loading, the interface
	// loop) — the per-iteration share of "FreeRide runtime" in Fig. 9.
	HostOverhead time.Duration
	// CreateTime is CreateSideTask(): loading context into host memory.
	CreateTime time.Duration
	// InitTime is InitSideTask(): loading context into GPU memory.
	InitTime time.Duration

	// SpeedServerII and SpeedCPU are throughput multipliers of Server-II
	// (RTX 3080) and Server-CPU relative to Server-I for this task; they
	// feed the Table-1 comparison and the cost model's C_sideTasks.
	SpeedServerII float64
	SpeedCPU      float64

	// Batch scaling (training tasks only): StepTime and MemBytes above are
	// for DefaultBatch; other batch sizes scale linearly per sample.
	BatchScalable  bool
	DefaultBatch   int
	StepTimeFixed  time.Duration // batch-independent step component
	StepTimePerSmp time.Duration // per-sample step component
	MemFixed       int64         // batch-independent memory
	MemPerSample   int64         // per-sample activation memory
}

// Profiles for the six side tasks of paper §6.1.4, calibrated so that the
// co-location outcomes of Tables 1–2 and Figures 7–9 are reproduced in
// shape. Memory footprints are chosen to interact with the per-stage
// available memory exactly as the paper reports: ResNet18/PageRank fit
// everywhere, ResNet50/Graph-SGD miss stage 0, VGG19/Image miss stages 0–1
// (Fig. 9's "No side task: OOM" shares).
var (
	ResNet18 = TaskProfile{
		Name: "resnet18", Kind: KindTraining,
		StepTime: 30400 * time.Microsecond, StepJitter: 0.10,
		MemBytes: gib(2.63),
		Demand:   0.55, Weight: 0.30,
		HostOverhead: 1200 * time.Microsecond,
		CreateTime:   1500 * time.Millisecond, InitTime: 400 * time.Millisecond,
		SpeedServerII: 0.90, SpeedCPU: 0.015,
		BatchScalable: true, DefaultBatch: 64,
		StepTimeFixed: 4 * time.Millisecond, StepTimePerSmp: 412500 * time.Nanosecond,
		MemFixed: gib(0.80), MemPerSample: gib(1.83) / 64, // ~29.3 MiB/sample
	}
	ResNet50 = TaskProfile{
		Name: "resnet50", Kind: KindTraining,
		StepTime: 90 * time.Millisecond, StepJitter: 0.10,
		MemBytes: gib(5.1),
		Demand:   0.65, Weight: 0.35,
		HostOverhead: 1500 * time.Microsecond,
		CreateTime:   2 * time.Second, InitTime: 600 * time.Millisecond,
		SpeedServerII: 0.83, SpeedCPU: 0.014,
		BatchScalable: true, DefaultBatch: 64,
		StepTimeFixed: 10 * time.Millisecond, StepTimePerSmp: 1250 * time.Microsecond,
		MemFixed: gib(1.2), MemPerSample: gib(3.9) / 64, // ~62.4 MiB/sample
	}
	VGG19 = TaskProfile{
		Name: "vgg19", Kind: KindTraining,
		StepTime: 282 * time.Millisecond, StepJitter: 0.08,
		MemBytes: gib(9.8),
		Demand:   0.75, Weight: 0.40,
		HostOverhead: 2 * time.Millisecond,
		CreateTime:   3 * time.Second, InitTime: 900 * time.Millisecond,
		SpeedServerII: 0.56, SpeedCPU: 0.013,
		BatchScalable: true, DefaultBatch: 64,
		StepTimeFixed: 26 * time.Millisecond, StepTimePerSmp: 4 * time.Millisecond,
		MemFixed: gib(2.6), MemPerSample: gib(7.2) / 64, // ~115.2 MiB/sample
	}
	PageRank = TaskProfile{
		Name: "pagerank", Kind: KindGraph,
		StepTime: 3 * time.Millisecond, StepJitter: 0.15,
		MemBytes: gib(2.5),
		Demand:   0.90, Weight: 0.30,
		HostOverhead: 1200 * time.Microsecond,
		CreateTime:   4 * time.Second, InitTime: 800 * time.Millisecond,
		SpeedServerII: 0.32, SpeedCPU: 0.028,
	}
	GraphSGD = TaskProfile{
		Name: "graphsgd", Kind: KindGraph,
		StepTime: 238 * time.Millisecond, StepJitter: 0.12,
		MemBytes: gib(3.5),
		Demand:   0.85, Weight: 6.5,
		HostOverhead: 1500 * time.Microsecond,
		CreateTime:   4 * time.Second, InitTime: 800 * time.Millisecond,
		SpeedServerII: 0.27, SpeedCPU: 0.096,
	}
	Image = TaskProfile{
		Name: "image", Kind: KindImage,
		StepTime: 82 * time.Millisecond, StepJitter: 0.10,
		MemBytes: gib(9.6),
		Demand:   0.30, Weight: 0.30,
		HostOverhead: 1500 * time.Microsecond,
		CreateTime:   1 * time.Second, InitTime: 500 * time.Millisecond,
		SpeedServerII: 0.47, SpeedCPU: 0.060,
	}
)

// TaskProfiles lists the built-in side tasks.
var TaskProfiles = []TaskProfile{ResNet18, ResNet50, VGG19, PageRank, GraphSGD, Image}

// TaskByName resolves a built-in profile.
func TaskByName(name string) (TaskProfile, error) {
	for _, t := range TaskProfiles {
		if t.Name == name {
			return t, nil
		}
	}
	return TaskProfile{}, fmt.Errorf("model: unknown side task %q", name)
}

// Validate refuses a profile no side task can run under: StepTime must be
// positive (a zero step with no host overhead is a step loop that never lets
// the clock move), StepJitter in [0, 1) (at 1 a draw can reach a zero or
// negative step), Demand in (0, 1], Weight finite and non-negative, and no
// overhead, create or init time or memory footprint negative. NaN fails every
// range.
func (t TaskProfile) Validate() error {
	bad := func(field string, v any, want string) error {
		return fmt.Errorf("model: task %q: %s %v, want %s", t.Name, field, v, want)
	}
	switch {
	case t.StepTime <= 0:
		return bad("StepTime", t.StepTime, "> 0")
	case !(t.StepJitter >= 0 && t.StepJitter < 1):
		return bad("StepJitter", t.StepJitter, "in [0, 1)")
	case !(t.Demand > 0 && t.Demand <= 1):
		return bad("Demand", t.Demand, "in (0, 1]")
	case !(t.Weight >= 0 && !math.IsInf(t.Weight, 1)):
		return bad("Weight", t.Weight, "finite and >= 0")
	case t.HostOverhead < 0:
		return bad("HostOverhead", t.HostOverhead, ">= 0")
	case t.CreateTime < 0:
		return bad("CreateTime", t.CreateTime, ">= 0")
	case t.InitTime < 0:
		return bad("InitTime", t.InitTime, ">= 0")
	case t.MemBytes < 0:
		return bad("MemBytes", t.MemBytes, ">= 0")
	}
	return nil
}

// FitTime is the worst-case pause-time fit: the bubble duration a task
// needs to reliably complete one step — a step at the profiled jitter
// ceiling plus the per-step host overhead. The iterative harness's
// program-directed limit skips bubbles shorter than its mean step; the
// manager's online re-planner demotes a task whose *estimated mean* bubble
// falls below this worst-case figure, so admission keeps a jitter margin
// the runtime check doesn't need.
func (t TaskProfile) FitTime() time.Duration {
	if t.StepTime <= 0 {
		return 0
	}
	step := t.StepTime + time.Duration(float64(t.StepTime)*t.StepJitter)
	return step + t.HostOverhead
}

// WithBatch returns the profile rescaled for a training batch size. It is a
// no-op for non-batch-scalable tasks.
func (t TaskProfile) WithBatch(batch int) TaskProfile {
	if !t.BatchScalable || batch <= 0 || batch == t.DefaultBatch {
		return t
	}
	out := t
	out.Name = fmt.Sprintf("%s-b%d", t.Name, batch)
	out.StepTime = t.StepTimeFixed + time.Duration(batch)*t.StepTimePerSmp
	out.MemBytes = t.MemFixed + int64(batch)*t.MemPerSample
	out.DefaultBatch = batch
	return out
}
