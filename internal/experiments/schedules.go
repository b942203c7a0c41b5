package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
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
	baseCfg := opts.baseConfig()
	baseCfg.Method = freeride.MethodIterative

	cells := scheduleSweepCells(opts, baseCfg.LLM)
	rows, err := runCells(opts, len(cells), func(i int) string {
		return fmt.Sprintf("schedule sweep %v S=%d M=%d", cells[i].Kind, cells[i].Stages, cells[i].MicroBatches)
	}, func(i int) (_ []ScheduleSweepRow, err error) {
		if !cells[i].OOM {
			err = runScheduleCell(baseCfg, &cells[i])
		}
		return cells[i : i+1], err
	})
	if err != nil {
		return nil, err
	}
	return &ScheduleSweepResult{Opts: opts, Rows: rows}, nil
}

// runScheduleCell executes one non-OOM cell and fills its measurements.
func runScheduleCell(baseCfg freeride.Config, row *ScheduleSweepRow) error {
	cfg := baseCfg
	cfg.Schedule = row.Kind
	cfg.Stages = row.Stages
	cfg.MicroBatches = row.MicroBatches
	cfg.VirtualStages = row.Virtual

	tNo, err := freeride.BaselineTrainTime(cfg)
	if err != nil {
		return err
	}
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		return err
	}
	row.BubbleSim = sess.Profile.BubbleRate()
	n, err := sess.SubmitEverywhere(model.ResNet18)
	if err != nil {
		return err
	}
	res, err := sess.Run()
	if err != nil {
		return err
	}
	res.CostReport(tNo)
	row.TrainTime = res.TrainTime
	row.BaseTime = tNo
	row.Harvested = harvestedKernelTime(res)
	row.Steps = res.TotalSteps()
	row.Instances = n
	return nil
}

// Render prints the sweep as a text table plus the harvest-vs-bubble-ratio
// readout the sweep exists for.
func (r *ScheduleSweepResult) Render() string {
	t := &Table{
		Title: "Schedule sweep — harvest vs bubble ratio across the schedule zoo " +
			"(ResNet18 everywhere, FreeRide iterative)",
		Header: []string{"schedule", "S", "M", "V", "bubble_sim", "bubble_est",
			"harvest_s", "harvest_rate", "train_s", "base_s", "steps", "tasks", "oom"},
	}
	for _, row := range r.Rows {
		if row.OOM {
			t.AddRow(row.Kind.String(), strconv.Itoa(row.Stages),
				strconv.Itoa(row.MicroBatches), strconv.Itoa(row.Virtual),
				"-", pct(row.BubbleEst), "-", "-", "-", "-", "-", "-", "OOM")
			continue
		}
		t.AddRow(
			row.Kind.String(), strconv.Itoa(row.Stages),
			strconv.Itoa(row.MicroBatches), strconv.Itoa(row.Virtual),
			pct(row.BubbleSim), pct(row.BubbleEst),
			secs(row.Harvested), fmtF(row.HarvestRate()),
			secs(row.TrainTime), secs(row.BaseTime),
			strconv.FormatUint(row.Steps, 10), strconv.Itoa(row.Instances), "",
		)
	}
	out := t.Render()

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
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"schedule", "stages", "micro_batches", "virtual",
		"oom", "bubble_sim", "bubble_est", "harvest_s", "harvest_rate",
		"train_s", "base_train_s", "steps", "instances"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			row.Kind.String(), strconv.Itoa(row.Stages),
			strconv.Itoa(row.MicroBatches), strconv.Itoa(row.Virtual),
			strconv.FormatBool(row.OOM),
			fmtF(row.BubbleSim), fmtF(row.BubbleEst),
			fmtF(row.Harvested.Seconds()), fmtF(row.HarvestRate()),
			fmtF(row.TrainTime.Seconds()), fmtF(row.BaseTime.Seconds()),
			strconv.FormatUint(row.Steps, 10), strconv.Itoa(row.Instances),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
