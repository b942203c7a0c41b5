package bubble

import (
	"time"
)

// Reporter is the runtime half of the instrumentation: at every epoch start
// it stamps the profiled templates into concrete Bubbles and delivers them
// to a sink (the side task manager, over RPC in the full system). This
// matches the paper's design where DeepSpeed is instrumented to report the
// start timestamp and duration of each bubble (§3.2, §4.6).
type Reporter struct {
	profile *Profile
	// safety shrinks every reported duration: the manager then pauses side
	// tasks slightly before the training op really needs the GPU.
	safety time.Duration

	sink  func(Bubble)
	drift *Drifter
}

// NewReporter builds a reporter from an offline profile. The safety margin
// is subtracted from each bubble's duration (clamped at zero).
func NewReporter(profile *Profile, safety time.Duration) *Reporter {
	return &Reporter{profile: profile, safety: safety}
}

// SetSink installs the bubble consumer (engine-callback context).
func (r *Reporter) SetSink(sink func(Bubble)) {
	r.sink = sink
}

// SetDrift installs a drift evaluator: from now on reported durations and
// memory are scaled per (stage, time) before the safety margin applies.
// Nil (the default) and identity scales leave the emitted bubbles
// untouched by the exact arithmetic the undrifted path uses.
func (r *Reporter) SetDrift(d *Drifter) {
	r.drift = d
}

// StageBaseline reports the undrifted per-epoch bubble supply the reporter
// emits for a stage — total duration after the safety margin, and how many
// reports carry it. This seeds the manager's online estimator with the
// exact arithmetic EmitEpoch uses, so a zero-drift window sum matches it
// to the bit.
func (r *Reporter) StageBaseline(stage int) (total time.Duration, reports int) {
	for _, sp := range r.profile.Stages {
		if sp.Stage != stage {
			continue
		}
		for _, tpl := range sp.Templates {
			if d := tpl.Duration - r.safety; d > 0 {
				total += d
				reports++
			}
		}
		return total, reports
	}
	return 0, 0
}

// CycleStart is the reporter's cycle-start hook (pipeline.Driver.OnCycleStart):
// an epoch began at ts.
func (r *Reporter) CycleStart(_ int, ts time.Duration) { r.EmitEpoch(ts) }

// EmitEpoch stamps and delivers all profiled bubbles for an epoch starting
// at ts.
func (r *Reporter) EmitEpoch(ts time.Duration) {
	sink := r.sink
	drift := r.drift
	if sink == nil {
		return
	}
	for _, sp := range r.profile.Stages {
		// Identity scales take the exact integer path below — a wired but
		// inactive drift plane emits bit-identical bubbles.
		dscale, mscale := 1.0, 1.0
		if drift != nil {
			dscale, mscale = drift.ScaleAt(sp.Stage, ts)
		}
		mem := sp.MemAvailable
		if mscale != 1 {
			mem = int64(float64(mem) * mscale)
		}
		for _, tpl := range sp.Templates {
			dur := tpl.Duration
			if dscale != 1 {
				dur = time.Duration(float64(dur) * dscale)
			}
			d := dur - r.safety
			if d <= 0 {
				continue
			}
			sink(Bubble{
				Stage:        tpl.Stage,
				Type:         tpl.Type,
				Start:        ts + tpl.Offset,
				Duration:     d,
				MemAvailable: mem,
			})
		}
	}
}
