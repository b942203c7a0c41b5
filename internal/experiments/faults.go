package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"freeride"
	"freeride/internal/model"
	"freeride/internal/simfault"
)

// FaultSweepRow is one (kind × event-count) cell of the fault sweep: the
// harvested GPU seconds and recovery counters of a seeded fault run,
// against the zero-fault lease-enabled baseline.
type FaultSweepRow struct {
	Kind   simfault.Kind
	Events int // scheduled fault events
	// Injected counts events that actually fired (always == Events on the
	// virtual clock; kept for schedule sanity).
	Injected uint64
	// TrainTime is the main job's total training time under faults;
	// BaseTime is the same workload's zero-fault (lease-enabled) time. The
	// difference is the recovery overhead charged to training — the
	// graceful-degradation contract keeps it at zero for control-plane-only
	// fault kinds.
	TrainTime time.Duration
	BaseTime  time.Duration
	// Harvested is the summed side-task kernel time (GPU-seconds of useful
	// harvest); BaseHarvest the zero-fault reference.
	Harvested   time.Duration
	BaseHarvest time.Duration
	// Recovery counters from the manager.
	WorkersLost  uint64
	Restarted    uint64
	Replacements uint64
	Parked       uint64
	LostWork     time.Duration
	// RetiredForever counts tasks that ended exited-with-error (not clean
	// stops, not parked): with an eligible peer available this must be zero.
	RetiredForever int
}

// RecoveryOverhead is the training-time delta vs the zero-fault run.
func (r FaultSweepRow) RecoveryOverhead() time.Duration { return r.TrainTime - r.BaseTime }

// FaultSweepResult is the full kind × rate grid.
type FaultSweepResult struct {
	Opts Options
	Rows []FaultSweepRow
}

// faultSweepCounts is the per-kind event-count axis of the sweep grid.
var faultSweepCounts = []int{1, 3}

// RunFaultSweep measures robustness under the deterministic fault plane: a
// kind × rate grid of seeded fault schedules over the standard workload
// (one ResNet18 instance per eligible stage), reporting harvested
// GPU-seconds against recovery overhead. The zero-fault baseline runs with
// the fault hooks wired and the lease enabled, so every delta in the grid
// is attributable to the injected events alone.
func RunFaultSweep(opts Options) (*FaultSweepResult, error) {
	opts.normalize()
	baseCfg := opts.baseConfig()
	baseCfg.Method = freeride.MethodIterative
	tasks := []model.TaskProfile{model.ResNet18}

	// Zero-fault reference: hooks wired, empty schedule.
	refCfg := baseCfg
	refCfg.Faults = &simfault.Schedule{Seed: opts.Seed}
	ref, err := runOne(refCfg, tasks)
	if err != nil {
		return nil, fmt.Errorf("fault sweep baseline: %w", err)
	}
	baseHarvest := harvestedKernelTime(ref)

	// The skeleton is kind × count, kind-major.
	kinds, counts := simfault.AllKinds(), faultSweepCounts
	rows, err := runCells(opts, len(kinds)*len(counts), func(i int) string {
		return fmt.Sprintf("fault sweep %v×%d", kinds[i/len(counts)], counts[i%len(counts)])
	}, func(i int) ([]FaultSweepRow, error) {
		ki, n := i/len(counts), counts[i%len(counts)]
		kind := kinds[ki]
		cfg := baseCfg
		seed := opts.Seed*1000 + int64(ki)*10 + int64(n)
		cfg.Faults = simfault.Generate(seed, ref.TrainTime, n,
			[]simfault.Kind{kind}, cfg.Stages)
		res, err := runOne(cfg, tasks)
		if err != nil {
			return nil, err
		}
		row := FaultSweepRow{
			Kind:         kind,
			Events:       n,
			Injected:     res.FaultStats.Total(),
			TrainTime:    res.TrainTime,
			BaseTime:     ref.TrainTime,
			Harvested:    harvestedKernelTime(res),
			BaseHarvest:  baseHarvest,
			WorkersLost:  res.ManagerStats.WorkersLost,
			Restarted:    res.ManagerStats.RestartedTasks,
			Replacements: res.ManagerStats.Replacements,
			Parked:       res.ManagerStats.ParkedTasks,
			LostWork:     res.ManagerStats.LostWork,
		}
		for _, tw := range res.Tasks {
			if tw.Exited && tw.ExitErr != "" && !tw.Parked {
				row.RetiredForever++
			}
		}
		return []FaultSweepRow{row}, nil
	})
	if err != nil {
		return nil, err
	}
	return &FaultSweepResult{Opts: opts, Rows: rows}, nil
}

func harvestedKernelTime(res *freeride.Result) time.Duration {
	var sum time.Duration
	for _, tw := range res.Tasks {
		sum += tw.KernelTime
	}
	return sum
}

// Render prints the sweep as a text table.
func (r *FaultSweepResult) Render() string {
	t := &Table{
		Title: "Fault sweep — harvested GPU seconds vs recovery overhead " +
			"(zero-fault lease-enabled baseline)",
		Header: []string{"kind", "events", "harvest_s", "base_harvest_s",
			"train_s", "overhead_s", "lost", "restarted", "replacements",
			"parked", "lostwork_s", "retired"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			row.Kind.String(), strconv.Itoa(row.Events),
			secs(row.Harvested), secs(row.BaseHarvest),
			secs(row.TrainTime), secs(row.RecoveryOverhead()),
			strconv.FormatUint(row.WorkersLost, 10),
			strconv.FormatUint(row.Restarted, 10),
			strconv.FormatUint(row.Replacements, 10),
			strconv.FormatUint(row.Parked, 10),
			secs(row.LostWork),
			strconv.Itoa(row.RetiredForever),
		)
	}
	return t.Render()
}

// WriteCSV emits one row per sweep cell.
func (r *FaultSweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "events", "injected", "harvest_s",
		"base_harvest_s", "train_s", "base_train_s", "overhead_s",
		"workers_lost", "restarted", "replacements", "parked", "lostwork_s",
		"retired_forever"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			row.Kind.String(), strconv.Itoa(row.Events),
			strconv.FormatUint(row.Injected, 10),
			fmtF(row.Harvested.Seconds()), fmtF(row.BaseHarvest.Seconds()),
			fmtF(row.TrainTime.Seconds()), fmtF(row.BaseTime.Seconds()),
			fmtF(row.RecoveryOverhead().Seconds()),
			strconv.FormatUint(row.WorkersLost, 10),
			strconv.FormatUint(row.Restarted, 10),
			strconv.FormatUint(row.Replacements, 10),
			strconv.FormatUint(row.Parked, 10),
			fmtF(row.LostWork.Seconds()),
			strconv.Itoa(row.RetiredForever),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
