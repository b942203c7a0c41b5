package bubble

import (
	"math"
	"testing"
	"time"
)

// fuzzProfile is a 4-stage template profile: two bubbles per stage, of
// different lengths, template i at offset i seconds, and a different
// free-memory level per stage.
func fuzzProfile() *Profile {
	p := &Profile{EpochSpan: 4 * time.Second}
	for s := 0; s < 4; s++ {
		sp := StageProfile{Stage: s, MemAvailable: int64(s+1) << 32}
		for i, d := range []time.Duration{40 * time.Millisecond, time.Duration(s+1) * 150 * time.Millisecond} {
			sp.Templates = append(sp.Templates, Template{
				Stage: s, Type: TypeA, Offset: time.Duration(i) * time.Second, Duration: d,
			})
			sp.BubbleTime += d
		}
		p.Stages = append(p.Stages, sp)
	}
	return p
}

// FuzzDriftScheduleReports feeds hand-built two-event drift schedules to the
// reporter. Every schedule Validate accepts must report only bubbles the
// drift clamps allow: 0 < Duration ≤ 64 × template, and MemAvailable within
// [mem/8 − 1, 8 × mem] of the stage's profiled free memory — at every
// instant an event starts or ends, and either side of it.
func FuzzDriftScheduleReports(f *testing.F) {
	sec := int64(time.Second)
	f.Add(sec, int(DriftFreeze), 2, 1.5, int64(0), 2*sec, int(DriftStraggler), 1, 3.0, sec)
	f.Add(sec, int(DriftResize), 0, -0.9, int64(0), sec, int(DriftRebalance), 3, 1e308, int64(0))
	f.Add(sec, int(DriftResize), 0, math.NaN(), int64(0), sec, int(DriftFreeze), 1, 1.0, int64(0))
	f.Add(sec, int(DriftStraggler), 1, math.Inf(1), sec, sec, int(DriftResize), 0, 1.0, int64(0))
	f.Add(int64(0), 0, 0, 1.0, int64(0), sec, 99, 4, 1.0, int64(-1))
	f.Fuzz(func(t *testing.T, at1 int64, kind1, stage1 int, mag1 float64, win1 int64,
		at2 int64, kind2, stage2 int, mag2 float64, win2 int64) {
		s := &DriftSchedule{Events: []DriftEvent{
			{At: time.Duration(at1), Kind: DriftKind(kind1), Stage: stage1, Magnitude: mag1, Window: time.Duration(win1)},
			{At: time.Duration(at2), Kind: DriftKind(kind2), Stage: stage2, Magnitude: mag2, Window: time.Duration(win2)},
		}}
		if s.Validate(4) != nil {
			return
		}
		profile := fuzzProfile()
		const safety = time.Millisecond
		r := NewReporter(profile, safety)
		r.SetDrift(NewDrifter(s, 4))
		var ts time.Duration
		r.SetSink(func(b Bubble) {
			sp := profile.Stages[b.Stage]
			d, mem := sp.Templates[(b.Start-ts)/time.Second].Duration, sp.MemAvailable
			if b.Duration <= 0 || b.Duration > 64*d {
				t.Fatalf("at %v: stage %d bubble of %v from a %v template", ts, b.Stage, b.Duration, d)
			}
			if b.MemAvailable < mem/8-1 || b.MemAvailable > 8*mem {
				t.Fatalf("at %v: stage %d bubble with %d bytes free of %d profiled", ts, b.Stage, b.MemAvailable, mem)
			}
		})
		for _, ev := range s.Events {
			for _, at := range []time.Duration{ev.At, ev.At + ev.Window} {
				for _, ts = range []time.Duration{at - 1, at, at + 1} {
					r.EmitEpoch(ts)
				}
			}
		}
	})
}
