package bubble

import (
	"fmt"
	"time"

	"freeride/internal/pipeline"
)

// ProfileFromTraces recovers the bubble profile from the training clients'
// SM-occupancy traces instead of the op log — the way the paper's profiler
// actually works (it watches the PyTorch profiler's estimated SM occupancy,
// §4.3). Gaps below the occupancy threshold are bubbles; classification
// uses only their position: epoch-boundary gaps are Type-A, the first
// mid-epoch gap after the warmup block is Type-B, the rest are Type-C.
//
// It exists alongside ProfileTrainer (op-log based) so the two
// implementations can cross-validate each other.
func ProfileFromTraces(tr *pipeline.Trainer, epoch int, minBubble time.Duration) (*Profile, error) {
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
		occ := tr.Client(s).OccTrace()
		gaps := occ.Below(0.05, epochStart, epochEnd)
		sp := StageProfile{Stage: s}
		sp.MemAvailable = tr.Device(s).MemBytes() -
			cfg.Model.StageMemUsedSched(cfg.Schedule, s, cfg.Stages,
				cfg.MicroBatches, cfg.VirtualPerStage)

		seenMid := false
		for _, gap := range gaps {
			d := gap.Duration()
			if d < minBubble {
				continue
			}
			typ := TypeC
			switch {
			case gap.Start <= epochStart+time.Millisecond || gap.End >= epochEnd-time.Millisecond:
				typ = TypeA
			case !seenMid:
				typ = TypeB
				seenMid = true
			}
			sp.Templates = append(sp.Templates, Template{
				Stage:    s,
				Type:     typ,
				Offset:   gap.Start - epochStart,
				Duration: d,
			})
			sp.BubbleTime += d
		}
		prof.Stages = append(prof.Stages, sp)
	}
	return prof, nil
}
