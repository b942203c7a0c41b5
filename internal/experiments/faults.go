package experiments

import (
	"fmt"
	"io"
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
	baseCfg := opts.baseConfig(freeride.MethodIterative)

	// Zero-fault reference: hooks wired, empty schedule.
	refCfg := baseCfg
	refCfg.Faults = &simfault.Schedule{Seed: opts.Seed}
	ref, err := runOne(refCfg, model.ResNet18)
	if err != nil {
		return nil, fmt.Errorf("fault sweep baseline: %w", err)
	}
	baseHarvest := harvestedKernelTime(ref)

	// The skeleton is kind × count, kind-major.
	type faultCell struct {
		ki, n int
		kind  simfault.Kind
	}
	var cells []faultCell
	for ki, kind := range simfault.AllKinds() {
		for _, n := range faultSweepCounts {
			cells = append(cells, faultCell{ki, n, kind})
		}
	}
	rows, err := runCells(opts, cells, func(c faultCell) string {
		return fmt.Sprintf("fault sweep %v×%d", c.kind, c.n)
	}, func(c faultCell) (FaultSweepRow, error) {
		cfg := baseCfg
		seed := opts.Seed*1000 + int64(c.ki)*10 + int64(c.n)
		cfg.Faults = simfault.Generate(seed, ref.TrainTime, c.n,
			[]simfault.Kind{c.kind}, cfg.Stages)
		res, err := runOne(cfg, model.ResNet18)
		if err != nil {
			return FaultSweepRow{}, err
		}
		row := FaultSweepRow{
			Kind:         c.kind,
			Events:       c.n,
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
		return row, nil
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

var faultColumns = []column[FaultSweepRow]{
	{"kind", func(r FaultSweepRow) cell { return text(r.Kind.String()) }, both},
	{"events", func(r FaultSweepRow) cell { return count(r.Events) }, both},
	{"injected", func(r FaultSweepRow) cell { return count(r.Injected) }, csvOnly},
	{"harvest_s", func(r FaultSweepRow) cell { return dur(r.Harvested) }, both},
	{"base_harvest_s", func(r FaultSweepRow) cell { return dur(r.BaseHarvest) }, both},
	{"train_s", func(r FaultSweepRow) cell { return dur(r.TrainTime) }, both},
	{"base_train_s", func(r FaultSweepRow) cell { return dur(r.BaseTime) }, csvOnly},
	{"overhead_s", func(r FaultSweepRow) cell { return dur(r.RecoveryOverhead()) }, both},
	{"workers_lost", func(r FaultSweepRow) cell { return count(r.WorkersLost) }, both},
	{"restarted", func(r FaultSweepRow) cell { return count(r.Restarted) }, both},
	{"replacements", func(r FaultSweepRow) cell { return count(r.Replacements) }, both},
	{"parked", func(r FaultSweepRow) cell { return count(r.Parked) }, both},
	{"lostwork_s", func(r FaultSweepRow) cell { return dur(r.LostWork) }, both},
	{"retired_forever", func(r FaultSweepRow) cell { return count(r.RetiredForever) }, both},
}

// Render prints the sweep as a text table.
func (r *FaultSweepResult) Render() string {
	return renderTable("Fault sweep — harvested GPU seconds vs recovery overhead "+
		"(zero-fault lease-enabled baseline)", faultColumns, r.Rows)
}

// WriteCSV emits one row per sweep cell.
func (r *FaultSweepResult) WriteCSV(w io.Writer) error { return writeCSV(w, faultColumns, r.Rows) }
