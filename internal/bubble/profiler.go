package bubble

import (
	"fmt"
	"time"

	"freeride/internal/pipeline"
)

// MinBubble is the default minimum gap treated as a bubble; smaller gaps
// (communication hiccups) are not worth a side-task state transition.
const MinBubble = 20 * time.Millisecond

// ProfileTrainer extracts the per-stage bubble profile from a completed
// (RecordOps-enabled) training epoch. This implements the paper's offline
// bubble profiling: run the pipeline once under the profiler, measure each
// bubble's duration and available GPU memory, keyed to the epoch period
// (§4.3).
func ProfileTrainer(tr *pipeline.Trainer, epoch int, minBubble time.Duration) (*Profile, error) {
	if minBubble <= 0 {
		minBubble = MinBubble
	}
	starts, ends := tr.CycleTimes()
	if epoch < 0 || epoch >= len(ends) {
		return nil, fmt.Errorf("bubble: epoch %d not completed (have %d)", epoch, len(ends))
	}
	epochStart, epochEnd := starts[epoch], ends[epoch]
	cfg := tr.Config()

	prof := &Profile{EpochSpan: epochEnd - epochStart}
	for s := 0; s < cfg.Stages; s++ {
		log := opsInWindow(tr.OpLog(s), epochStart, epochEnd)
		if len(log) == 0 {
			return nil, fmt.Errorf("bubble: stage %d has no recorded ops (RecordOps off?)", s)
		}
		sp := StageProfile{Stage: s}
		sp.MemAvailable = tr.Device(s).MemBytes() -
			cfg.Model.StageMemUsedSched(cfg.Schedule, s, cfg.Stages,
				cfg.MicroBatches, cfg.VirtualPerStage)

		add := func(from, to time.Duration, typ Type) {
			d := to - from
			if d < minBubble {
				return
			}
			sp.Templates = append(sp.Templates, Template{
				Stage:    s,
				Type:     typ,
				Offset:   from - epochStart,
				Duration: d,
			})
			sp.BubbleTime += d
		}

		// Lead-in gap: Type-A (cascading forward dependency).
		add(epochStart, log[0].Start, TypeA)
		// Gaps between consecutive ops. The schedule-agnostic Type-B rule:
		// the first mid-epoch gap sitting between a forward and the stage's
		// first activation-gradient backward is the warmup-to-steady-state
		// wait. For 1F1B and GPipe this picks exactly the gap the historic
		// fpSeen==warmup rule did (no F→F gap clears minBubble before the
		// first backward — upstream feeds warmup forwards every FPPerMB,
		// leaving only sub-minBubble comm gaps); chunk-multiplexed and B/W
		// logs need no per-kind warmup table.
		bpSeen := false
		for i := 0; i+1 < len(log); i++ {
			next := log[i+1].Op.Kind
			nextBP := next == pipeline.OpBackward || next == pipeline.OpBackwardInput
			typ := TypeC
			if !bpSeen && nextBP && log[i].Op.Kind == pipeline.OpForward {
				// The warmup-to-first-backward wait: Type-B.
				typ = TypeB
			}
			if nextBP {
				bpSeen = true
			}
			add(log[i].End, log[i+1].Start, typ)
		}
		// Tail gap: Type-A (cascading backward dependency).
		add(log[len(log)-1].End, epochEnd, TypeA)

		prof.Stages = append(prof.Stages, sp)
	}
	return prof, nil
}

func opsInWindow(log []pipeline.OpSpan, t0, t1 time.Duration) []pipeline.OpSpan {
	var out []pipeline.OpSpan
	for _, span := range log {
		if span.Start >= t0 && span.End <= t1 {
			out = append(out, span)
		}
	}
	return out
}
