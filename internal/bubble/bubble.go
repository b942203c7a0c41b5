// Package bubble defines bubble records, recovers per-stage bubble shapes
// from an instrumented profiling run (paper §4.3 "Profiling bubbles"), and
// re-emits them at runtime anchored to epoch starts (the analog of the
// paper's 55-line DeepSpeed instrumentation, §4.6).
//
// Classification follows paper §2.2.1:
//
//   - Type-A: at the start/end of an epoch, from the cascading FP (start)
//     and BP (end) dependencies; absent at stage 0 (start) / tail stages.
//   - Type-B: mid-epoch, between the warmup forwards and the first
//     backward, caused by the round trip to the last stage.
//   - Type-C: the remaining small mid-epoch gaps from unaligned FP/BP.
package bubble

import (
	"fmt"
	"time"
)

// Type is the bubble category.
type Type int

// Bubble categories of paper §2.2.1.
const (
	TypeA Type = iota + 1
	TypeB
	TypeC
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeB:
		return "B"
	case TypeC:
		return "C"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Bubble is one concrete idle period on one stage's GPU.
type Bubble struct {
	Stage    int           `json:"stage"`
	Type     Type          `json:"type"`
	Start    time.Duration `json:"startNs"` // absolute engine time
	Duration time.Duration `json:"durNs"`
	// MemAvailable is the device memory not used by training during this
	// bubble (constant within a stage, paper §2.2.1).
	MemAvailable int64 `json:"memAvail"`
}

// End reports Start+Duration.
func (b Bubble) End() time.Duration { return b.Start + b.Duration }

// Template is a bubble shape anchored to the epoch start; the profiler
// extracts templates once and the reporter stamps them into Bubbles each
// epoch ("bubbles have the same characteristics during training, as epochs
// are repetitive and stable", paper §2.2.1).
type Template struct {
	Stage    int
	Type     Type
	Offset   time.Duration // from epoch start
	Duration time.Duration
}

// StageProfile aggregates one stage's bubble shape.
type StageProfile struct {
	Stage        int
	Templates    []Template
	MemAvailable int64
	// BubbleTime is the summed template duration per epoch.
	BubbleTime time.Duration
}

// Profile is the result of offline bubble profiling for one (model,
// schedule, hardware) combination.
type Profile struct {
	EpochSpan time.Duration
	Stages    []StageProfile
}

// TotalBubbleTime sums bubble time across stages for one epoch.
func (p *Profile) TotalBubbleTime() time.Duration {
	var sum time.Duration
	for _, s := range p.Stages {
		sum += s.BubbleTime
	}
	return sum
}

// BubbleRate reports mean per-stage bubble time over the epoch span
// (the paper's "bubble rate", §2.2.2).
func (p *Profile) BubbleRate() float64 {
	if p.EpochSpan <= 0 || len(p.Stages) == 0 {
		return 0
	}
	mean := float64(p.TotalBubbleTime()) / float64(len(p.Stages))
	return mean / float64(p.EpochSpan)
}

// Durations returns all template durations (for the Figure-2 distribution).
func (p *Profile) Durations() []time.Duration {
	var out []time.Duration
	for _, s := range p.Stages {
		for _, t := range s.Templates {
			out = append(out, t.Duration)
		}
	}
	return out
}
