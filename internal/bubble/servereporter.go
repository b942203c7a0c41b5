package bubble

import (
	"time"
)

// ServeReporter is the request-driven bubble reporter of the serving
// workload. Where the training Reporter replays a profiled per-epoch
// template, serving bubbles are gated by arrivals, so the reporter emits
// them per batch from the closed forms plus a causal prediction:
//
//   - At batch dispatch: each stage's fill bubble (TypeA — idle until its
//     first micro-batch cascades in) and drain bubble (TypeB — idle after
//     its last micro-batch leaves, anchored at span−drain).
//   - At batch drain: a per-stage inter-batch gap bubble (TypeC) whose
//     duration is an EWMA over the previously observed drain→dispatch
//     gaps. The prediction is causal — the reporter never peeks at the
//     arrival trace — so a burst arriving earlier than predicted leaves
//     side tasks running into the next batch's compute. That contention is
//     exactly the p99 tension the manager's SLO admission guard trades
//     against harvest.
//
// A safety margin shrinks every emitted duration, like the training
// reporter's.
type ServeReporter struct {
	fill     []time.Duration
	drain    []time.Duration
	span     time.Duration
	memAvail []int64
	safety   time.Duration

	sink    func(Bubble)
	lastEnd time.Duration
	haveEnd bool
	gapEWMA time.Duration
	haveGap bool
}

// gapAlpha is the EWMA weight of the newest observed inter-batch gap.
const gapAlpha = 0.5

// NewServeReporter builds a reporter from the per-stage closed forms: fill
// and drain idle times, the batch span, and the serving memory headroom.
func NewServeReporter(fill, drain []time.Duration, span time.Duration, memAvail []int64, safety time.Duration) *ServeReporter {
	return &ServeReporter{
		fill:     fill,
		drain:    drain,
		span:     span,
		memAvail: memAvail,
		safety:   safety,
	}
}

// SetSink installs the bubble consumer (the manager link).
func (r *ServeReporter) SetSink(fn func(Bubble)) {
	r.sink = fn
}

// CycleStart observes a batch dispatch (pipeline.Driver.OnCycleStart): folds
// the realized drain→dispatch gap into the predictor and emits the batch's
// fill and drain bubbles.
func (r *ServeReporter) CycleStart(_ int, ts time.Duration) {
	if r.haveEnd {
		gap := ts - r.lastEnd
		if gap < 0 {
			gap = 0
		}
		if !r.haveGap {
			r.gapEWMA = gap
			r.haveGap = true
		} else {
			r.gapEWMA = time.Duration(gapAlpha*float64(gap) + (1-gapAlpha)*float64(r.gapEWMA))
		}
	}
	sink := r.sink
	if sink == nil {
		return
	}
	for s := range r.fill {
		if d := r.fill[s] - r.safety; d > 0 {
			sink(Bubble{Stage: s, Type: TypeA, Start: ts, Duration: d, MemAvailable: r.memAvail[s]})
		}
		if d := r.drain[s] - r.safety; d > 0 {
			sink(Bubble{Stage: s, Type: TypeB, Start: ts + r.span - r.drain[s], Duration: d, MemAvailable: r.memAvail[s]})
		}
	}
}

// CycleEnd observes a batch drain (pipeline.Driver.OnCycleEnd): emits the
// predicted inter-batch gap as a TypeC bubble on every stage (no emission
// before the first gap has been observed — the predictor starts causal and
// empty).
func (r *ServeReporter) CycleEnd(_ int, ts time.Duration) {
	r.lastEnd = ts
	r.haveEnd = true
	sink := r.sink
	if sink == nil || !r.haveGap {
		return
	}
	if d := r.gapEWMA - r.safety; d > 0 {
		for s := range r.fill {
			sink(Bubble{Stage: s, Type: TypeC, Start: ts, Duration: d, MemAvailable: r.memAvail[s]})
		}
	}
}
