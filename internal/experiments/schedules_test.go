package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"freeride/internal/model"
	"freeride/internal/sidetask"
)

func scheduleSweepOpts() Options {
	return Options{Epochs: 4, WorkScale: sidetask.WorkNone, Seed: 1}
}

func TestScheduleSweepDefaultSlice(t *testing.T) {
	res, err := RunScheduleSweep(scheduleSweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Default slice: 4 schedules × S=4 × M {4,8}.
	if len(res.Rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(res.Rows))
	}
	type axis struct{ s, m int }
	byKind := map[model.Schedule]map[axis]ScheduleSweepRow{}
	for _, row := range res.Rows {
		if byKind[row.Kind] == nil {
			byKind[row.Kind] = map[axis]ScheduleSweepRow{}
		}
		byKind[row.Kind][axis{row.Stages, row.MicroBatches}] = row
	}

	// The memory model rules out the all-M-activations footprints at M=8
	// (GPipe and zero-bubble hold 8×6.4 GiB) and interleaved S=4 M=8; the
	// rest must have run.
	for _, row := range res.Rows {
		wantOOM := row.MicroBatches == 8 && row.Kind != model.Schedule1F1B
		if row.OOM != wantOOM {
			t.Errorf("%v S=%d M=%d: OOM=%v, want %v", row.Kind, row.Stages,
				row.MicroBatches, row.OOM, wantOOM)
		}
		if row.OOM {
			if row.TrainTime != 0 || row.Harvested != 0 {
				t.Errorf("%v M=%d: OOM cell has measurements", row.Kind, row.MicroBatches)
			}
			continue
		}
		if row.TrainTime <= 0 || row.Instances == 0 || row.Steps == 0 {
			t.Errorf("%v S=%d M=%d: inert cell %+v", row.Kind, row.Stages,
				row.MicroBatches, row)
		}
		// The profiled bubble rate must agree with the closed form (exact
		// for V=1 kinds, lower bound under interleaved contention).
		if row.Virtual == 1 {
			if math.Abs(row.BubbleSim-row.BubbleEst) > 0.02 {
				t.Errorf("%v S=%d M=%d: sim %.4f vs est %.4f", row.Kind,
					row.Stages, row.MicroBatches, row.BubbleSim, row.BubbleEst)
			}
		} else if row.BubbleSim < row.BubbleEst-0.005 {
			t.Errorf("%v S=%d M=%d: sim %.4f below ideal bound %.4f", row.Kind,
				row.Stages, row.MicroBatches, row.BubbleSim, row.BubbleEst)
		}
	}

	// The sweep's reason to exist: less bubble ratio → less harvest. At
	// S=4 M=4 the ordering zero-bubble < interleaved < 1F1B must hold for
	// both the bubble rate and the harvested seconds.
	a := axis{4, 4}
	zb, il, of := byKind[model.ScheduleZeroBubble][a], byKind[model.ScheduleInterleaved][a], byKind[model.Schedule1F1B][a]
	if !(zb.BubbleSim < il.BubbleSim && il.BubbleSim < of.BubbleSim) {
		t.Errorf("bubble ordering violated: zb %.4f il %.4f 1f1b %.4f",
			zb.BubbleSim, il.BubbleSim, of.BubbleSim)
	}
	if !(zb.Harvested < il.Harvested && il.Harvested < of.Harvested) {
		t.Errorf("harvest ordering violated: zb %v il %v 1f1b %v",
			zb.Harvested, il.Harvested, of.Harvested)
	}

	out := res.Render()
	if !strings.Contains(out, "harvesting stops paying") {
		t.Errorf("render missing the harvest-vs-bubble readout:\n%s", out)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 9 {
		t.Errorf("CSV has %d lines, want 9 (header + 8 cells)", got)
	}
}

func TestScheduleSweepShardsPartition(t *testing.T) {
	// Every whole-sweep cell appears exactly once across the shards with
	// identical measurements (cells are independent simulations).
	shardsPartition(t, scheduleSweepOpts(), 1, func(o Options) ([]ScheduleSweepRow, error) {
		r, err := RunScheduleSweep(o)
		if err != nil {
			return nil, err
		}
		return r.Rows, nil
	})
}
