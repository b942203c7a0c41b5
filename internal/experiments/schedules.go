package experiments

import (
	"fmt"
	"io"
	"time"

	"freeride"
	"freeride/internal/model"
	"freeride/internal/pipeline"
)

// ScheduleSweepRow is one (schedule × stages × micro-batches) cell of the
// harvest-vs-bubble-ratio sweep: the simulated bubble rate (from the offline
// profiling pass), the closed-form estimate, and the harvest a ResNet18
// everywhere-placement extracts from that bubble budget.
type ScheduleSweepRow struct {
	Kind         pipeline.ScheduleKind
	Stages       int
	MicroBatches int
	Virtual      int

	// OOM marks cells whose training footprint exceeds Server I's GPU
	// memory on some stage (the schedule-aware memory model says the main
	// job itself cannot run — e.g. GPipe/zero-bubble at M=8 hold all M
	// activations). OOM cells are flagged deterministically and skipped.
	OOM bool

	// BubbleSim is the mean per-stage bubble rate the profiler measures on
	// the simulated pipeline; BubbleEst the schedule's closed form
	// (model.BubbleRateEstimate). For interleaved the estimate is the
	// Megatron ideal — a lower bound under chunk contention.
	BubbleSim float64
	BubbleEst float64

	TrainTime time.Duration
	BaseTime  time.Duration
	// Harvested is total side-task kernel time extracted from the bubbles.
	Harvested time.Duration
	Steps     uint64
	// Instances is how many stages fit a ResNet18 next to the main job.
	Instances int
}

// HarvestRate is harvested kernel seconds per second of baseline training —
// the sweep's y-axis against the bubble-ratio x-axis.
func (r ScheduleSweepRow) HarvestRate() float64 {
	if r.BaseTime <= 0 {
		return 0
	}
	return float64(r.Harvested) / float64(r.BaseTime)
}

// ScheduleSweepResult is the schedule × stages × micro-batches grid.
type ScheduleSweepResult struct {
	Opts Options
	Rows []ScheduleSweepRow
}

// scheduleSweepCells builds the deterministic cell skeleton: every schedule
// kind over the requested (stages, micro-batches) axes, interleaved running
// with V=2 virtual chunks per device. Cross widens the axes from the default
// S=4 × M {4,8} slice to the full S {2,4,8} × M {4,8,16} product.
func scheduleSweepCells(opts Options, llm model.LLM) []ScheduleSweepRow {
	stagesAxis := []int{4}
	mbAxis := []int{4, 8}
	if opts.Cross {
		stagesAxis = []int{2, 4, 8}
		mbAxis = []int{4, 8, 16}
	}
	var cells []ScheduleSweepRow
	for _, kind := range model.AllSchedules() {
		for _, S := range stagesAxis {
			for _, M := range mbAxis {
				V := 1
				if kind == model.ScheduleInterleaved {
					V = 2
				}
				row := ScheduleSweepRow{
					Kind: kind, Stages: S, MicroBatches: M, Virtual: V,
					BubbleEst: llm.BubbleRateEstimate(kind, S, M, V),
				}
				for s := 0; s < S; s++ {
					if llm.StageMemUsedSched(kind, s, S, M, V) > model.ServerI.GPUMemBytes {
						row.OOM = true
						break
					}
				}
				cells = append(cells, row)
			}
		}
	}
	return cells
}

// RunScheduleSweep runs the harvest-vs-bubble-ratio sweep: every schedule
// generator over the (stages, micro-batches) grid, one ResNet18 instance per
// eligible stage, FreeRide iterative. The sweep answers the schedule-zoo
// question directly: as better schedules shrink the bubble ratio (1F1B →
// interleaved → zero-bubble), how much harvestable supply is left? Cells the
// memory model rules out (GPipe/zero-bubble footprints at high M) are
// flagged OOM and skipped deterministically. Shard/ShardCount split the grid
// for CI parallelism (see runCells).
func RunScheduleSweep(opts Options) (*ScheduleSweepResult, error) {
	opts.normalize()
	baseCfg := opts.baseConfig(freeride.MethodIterative)

	cells := scheduleSweepCells(opts, baseCfg.LLM)
	rows, err := runCells(opts, cells, func(c ScheduleSweepRow) string {
		return fmt.Sprintf("schedule sweep %v S=%d M=%d", c.Kind, c.Stages, c.MicroBatches)
	}, func(c ScheduleSweepRow) (ScheduleSweepRow, error) {
		return runScheduleCell(baseCfg, c)
	})
	if err != nil {
		return nil, err
	}
	return &ScheduleSweepResult{Opts: opts, Rows: rows}, nil
}

// runScheduleCell executes one cell and fills its measurements; a cell the
// memory model ruled out comes back as it is.
func runScheduleCell(baseCfg freeride.Config, row ScheduleSweepRow) (ScheduleSweepRow, error) {
	if row.OOM {
		return row, nil
	}
	cfg := baseCfg
	cfg.Schedule = row.Kind
	cfg.Stages = row.Stages
	cfg.MicroBatches = row.MicroBatches
	cfg.VirtualStages = row.Virtual

	res, err := runSession(cfg, func(sess *freeride.Session) (err error) {
		row.BubbleSim = sess.Profile.BubbleRate()
		row.Instances, err = sess.SubmitEverywhere(model.ResNet18)
		return err
	})
	if err != nil {
		return row, err
	}
	row.TrainTime = res.TrainTime
	row.BaseTime = res.Cost.TNo
	row.Harvested = harvestedKernelTime(res)
	row.Steps = res.TotalSteps()
	return row, nil
}

// ran blanks a measured column's text in the rows the memory model ruled out
// (the CSV keeps the zero beside its oom flag).
func ran(get func(ScheduleSweepRow) cell) func(ScheduleSweepRow) cell {
	return func(r ScheduleSweepRow) cell {
		c := get(r)
		if r.OOM {
			c.text = "-"
		}
		return c
	}
}

var scheduleColumns = []column[ScheduleSweepRow]{
	{"schedule", func(r ScheduleSweepRow) cell { return text(r.Kind.String()) }, both},
	{"stages", func(r ScheduleSweepRow) cell { return count(r.Stages) }, both},
	{"micro_batches", func(r ScheduleSweepRow) cell { return count(r.MicroBatches) }, both},
	{"virtual", func(r ScheduleSweepRow) cell { return count(r.Virtual) }, both},
	{"oom", func(r ScheduleSweepRow) cell { return flagged(r.OOM, "OOM") }, csvOnly},
	{"bubble_sim", ran(func(r ScheduleSweepRow) cell { return ratio(r.BubbleSim) }), both},
	{"bubble_est", func(r ScheduleSweepRow) cell { return ratio(r.BubbleEst) }, both},
	{"harvest_s", ran(func(r ScheduleSweepRow) cell { return dur(r.Harvested) }), both},
	{"harvest_rate", ran(func(r ScheduleSweepRow) cell { return num(r.HarvestRate()) }), both},
	{"train_s", ran(func(r ScheduleSweepRow) cell { return dur(r.TrainTime) }), both},
	{"base_train_s", ran(func(r ScheduleSweepRow) cell { return dur(r.BaseTime) }), both},
	{"steps", ran(func(r ScheduleSweepRow) cell { return count(r.Steps) }), both},
	{"instances", ran(func(r ScheduleSweepRow) cell { return count(r.Instances) }), both},
	// The text table flags an OOM row at its end, after the dashes.
	{"oom", func(r ScheduleSweepRow) cell { return flagged(r.OOM, "OOM") }, textOnly},
}

// Render prints the sweep as a text table plus the harvest-vs-bubble-ratio
// readout the sweep exists for.
func (r *ScheduleSweepResult) Render() string {
	out := renderTable("Schedule sweep — harvest vs bubble ratio across the schedule zoo "+
		"(ResNet18 everywhere, FreeRide iterative)", scheduleColumns, r.Rows)

	// The headline comparison: for each (S, M) that ran both, how much of
	// 1F1B's harvest survives under the schedule with the smallest bubble
	// budget?
	type axis struct{ s, m int }
	oneF := map[axis]ScheduleSweepRow{}
	for _, row := range r.Rows {
		if row.Kind == model.Schedule1F1B && !row.OOM {
			oneF[axis{row.Stages, row.MicroBatches}] = row
		}
	}
	var n int
	var harvestFrac, bubbleFrac float64
	for _, row := range r.Rows {
		if row.Kind != model.ScheduleZeroBubble || row.OOM {
			continue
		}
		base, ok := oneF[axis{row.Stages, row.MicroBatches}]
		if !ok || base.Harvested <= 0 || base.BubbleSim <= 0 {
			continue
		}
		harvestFrac += float64(row.Harvested) / float64(base.Harvested)
		bubbleFrac += row.BubbleSim / base.BubbleSim
		n++
	}
	if n > 0 {
		out += fmt.Sprintf(
			"\nharvest tracks the bubble budget: zero-bubble keeps %.0f%% of the "+
				"bubble ratio and %.0f%% of the harvested GPU-seconds of 1F1B on the "+
				"same cells — as the schedule drives the bubble ratio toward zero, "+
				"harvesting stops paying.\n", 100*bubbleFrac/float64(n), 100*harvestFrac/float64(n))
	}
	return out
}

// WriteCSV emits one row per sweep cell (OOM cells included, flagged).
func (r *ScheduleSweepResult) WriteCSV(w io.Writer) error {
	return writeCSV(w, scheduleColumns, r.Rows)
}
