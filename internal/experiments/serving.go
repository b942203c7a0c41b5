package experiments

import (
	"fmt"
	"io"
	"time"

	"freeride"
	"freeride/internal/model"
	"freeride/internal/serve"
)

// ServingSweepRow is one (trace × rate × SLO × guard) cell of the serving
// sweep: the FreeRide-iterative arm with side tasks harvesting the fill,
// drain and inter-batch bubbles, against the no-side-task baseline on the
// same arrival trace.
type ServingSweepRow struct {
	Trace serve.TraceKind
	// Rate is the mean arrival rate (req/s); Burstiness the trace's shape
	// knob (0 for Poisson).
	Rate       float64
	Burstiness float64
	SLO        time.Duration
	// Guard is the SLO admission guard: pause-to-running fits are deferred
	// when the remaining bubble is shorter than Guard × the task's fit
	// time. 0 disarms the guard (structural identity with the unguarded
	// reconcile loop).
	Guard float64

	// Request-latency distribution of the harvesting arm.
	Requests   int
	Batches    int
	P50        time.Duration
	P99        time.Duration
	Max        time.Duration
	Violations int
	// Baseline (MethodNone, same trace): the serving latency floor.
	BaseP50        time.Duration
	BaseP99        time.Duration
	BaseViolations int

	// Harvested is side-task kernel time extracted from serving bubbles;
	// Steps the completed side-task steps; SLODeferred how many fits the
	// guard refused.
	Harvested   time.Duration
	Steps       uint64
	SLODeferred uint64
	Instances   int
	// TotalTime is the serving makespan (first dispatch → last drain).
	TotalTime time.Duration
}

// HarvestRate is harvested side-task kernel seconds per second of serving
// makespan — the sweep's y-axis against the violation count.
func (r ServingSweepRow) HarvestRate() float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return float64(r.Harvested) / float64(r.TotalTime)
}

// ExcessViolations is the harvesting arm's SLO violations beyond the
// baseline's on the same trace — the contention cost of harvesting.
func (r ServingSweepRow) ExcessViolations() int { return r.Violations - r.BaseViolations }

// ServingSweepResult is the trace × rate × SLO × guard grid.
type ServingSweepResult struct {
	Opts Options
	Rows []ServingSweepRow
}

// servingSweepCells builds the deterministic cell skeleton. The default
// slice pairs each trace with its characteristic burstiness (Poisson 0,
// bursty 3) over rates {2,4} req/s, SLOs {6s,4s}, guards {0,1,4}; Cross
// adds the diurnal trace and a tighter 3s SLO.
func servingSweepCells(opts Options) []ServingSweepRow {
	traces := []ServingSweepRow{
		{Trace: serve.TracePoisson},
		{Trace: serve.TraceBursty, Burstiness: 3},
	}
	rates := []float64{2, 4}
	slos := []time.Duration{6 * time.Second, 4 * time.Second}
	guards := []float64{0, 1, 4}
	if opts.Cross {
		traces = append(traces, ServingSweepRow{Trace: serve.TraceDiurnal, Burstiness: 2})
		slos = append(slos, 3*time.Second)
	}
	var cells []ServingSweepRow
	for _, c := range traces {
		for _, rate := range rates {
			for _, slo := range slos {
				for _, g := range guards {
					c.Rate, c.SLO, c.Guard = rate, slo, g
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// RunServingSweep runs the inference-serving workload end to end: open-loop
// arrival traces drive forward-only pipeline batches, side tasks harvest
// the fill/drain/inter-batch bubbles, and the SLO admission guard trades
// harvested GPU-seconds against p99 violations. Every guard arm of a
// (trace, rate) pair shares the same seeded arrivals, so the guard axis is
// directly comparable. Shard/ShardCount split the grid (see runCells).
func RunServingSweep(opts Options) (*ServingSweepResult, error) {
	opts.normalize()
	baseCfg := opts.baseConfig(freeride.MethodIterative)

	rows, err := runCells(opts, servingSweepCells(opts), func(c ServingSweepRow) string {
		return fmt.Sprintf("serving sweep %v rate=%g slo=%v g=%g", c.Trace, c.Rate, c.SLO, c.Guard)
	}, func(c ServingSweepRow) (ServingSweepRow, error) {
		return runServingCell(baseCfg, c)
	})
	if err != nil {
		return nil, err
	}
	return &ServingSweepResult{Opts: opts, Rows: rows}, nil
}

// runServingCell executes one cell: the harvesting arm (FreeRide iterative,
// one ResNet18 per eligible stage) and the MethodNone baseline on the same
// trace, filling the row's measurements.
func runServingCell(baseCfg freeride.Config, row ServingSweepRow) (ServingSweepRow, error) {
	sc := freeride.ServingConfig{
		Trace:      row.Trace,
		Rate:       row.Rate,
		Burstiness: row.Burstiness,
		SLO:        row.SLO,
		Guard:      row.Guard,
	}

	cfg := baseCfg
	cfg.Serving = &sc
	res, err := runSession(cfg, func(sess *freeride.Session) (err error) {
		row.Instances, err = sess.SubmitEverywhere(model.ResNet18)
		return err
	})
	if err != nil {
		return row, err
	}
	st := res.ServingStats
	row.Requests = st.Requests
	row.Batches = st.Batches
	row.P50, row.P99, row.Max = st.P50, st.P99, st.Max
	row.Violations = st.Violations
	row.Harvested = harvestedKernelTime(res)
	row.Steps = res.TotalSteps()
	row.SLODeferred = res.ManagerStats.SLODeferred
	row.TotalTime = st.TotalTime

	// Baseline: same trace and SLO, no side tasks, no residency tax.
	bcfg := baseCfg
	bcfg.Method = freeride.MethodNone
	bsc := sc
	bsc.Guard = 0
	bcfg.Serving = &bsc
	bres, err := runOne(bcfg)
	if err != nil {
		return row, err
	}
	bst := bres.ServingStats
	row.BaseP50, row.BaseP99 = bst.P50, bst.P99
	row.BaseViolations = bst.Violations
	return row, nil
}

// servingColumns: the text table pairs each latency figure with its baseline
// and ends on the request count, where the CSV groups each arm's figures; the
// three columns the two outputs place differently appear once per output.
var servingColumns = []column[ServingSweepRow]{
	{"trace", func(r ServingSweepRow) cell { return text(r.Trace.String()) }, both},
	{"rate", func(r ServingSweepRow) cell { return num(r.Rate) }, both},
	{"burstiness", func(r ServingSweepRow) cell { return num(r.Burstiness) }, csvOnly},
	{"slo_s", func(r ServingSweepRow) cell { return num(r.SLO.Seconds()) }, both},
	{"guard", func(r ServingSweepRow) cell { return num(r.Guard) }, both},
	{"requests", func(r ServingSweepRow) cell { return count(r.Requests) }, csvOnly},
	{"batches", func(r ServingSweepRow) cell { return count(r.Batches) }, csvOnly},
	{"p50_s", func(r ServingSweepRow) cell { return dur(r.P50) }, csvOnly},
	{"p99_s", func(r ServingSweepRow) cell { return dur(r.P99) }, both},
	{"base_p99_s", func(r ServingSweepRow) cell { return dur(r.BaseP99) }, textOnly},
	{"max_s", func(r ServingSweepRow) cell { return dur(r.Max) }, csvOnly},
	{"violations", func(r ServingSweepRow) cell { return count(r.Violations) }, both},
	{"base_p50_s", func(r ServingSweepRow) cell { return dur(r.BaseP50) }, csvOnly},
	{"base_p99_s", func(r ServingSweepRow) cell { return dur(r.BaseP99) }, csvOnly},
	{"base_violations", func(r ServingSweepRow) cell { return count(r.BaseViolations) }, both},
	{"slo_deferred", func(r ServingSweepRow) cell { return count(r.SLODeferred) }, textOnly},
	{"harvest_s", func(r ServingSweepRow) cell { return dur(r.Harvested) }, both},
	{"harvest_rate", func(r ServingSweepRow) cell { return num(r.HarvestRate()) }, both},
	{"steps", func(r ServingSweepRow) cell { return count(r.Steps) }, both},
	{"slo_deferred", func(r ServingSweepRow) cell { return count(r.SLODeferred) }, csvOnly},
	{"instances", func(r ServingSweepRow) cell { return count(r.Instances) }, both},
	{"requests", func(r ServingSweepRow) cell { return count(r.Requests) }, textOnly},
	{"span_s", func(r ServingSweepRow) cell { return dur(r.TotalTime) }, both},
}

// Render prints the sweep as a text table plus the harvest-vs-violations
// readout the sweep exists for.
func (r *ServingSweepResult) Render() string {
	out := renderTable("Serving sweep — harvested GPU-seconds vs p99 SLO violations "+
		"(ResNet18 everywhere, FreeRide iterative vs no-side-task baseline)", servingColumns, r.Rows)

	// The headline tradeoff: aggregated over (trace, rate, SLO) groups,
	// what does tightening the guard from 0 to its max cost in harvest and
	// buy in violations?
	var gMin, gMax float64
	for i, row := range r.Rows {
		if i == 0 || row.Guard < gMin {
			gMin = row.Guard
		}
		if i == 0 || row.Guard > gMax {
			gMax = row.Guard
		}
	}
	if gMax > gMin {
		var hLoose, hTight time.Duration
		var vLoose, vTight int
		for _, row := range r.Rows {
			switch row.Guard {
			case gMin:
				hLoose += row.Harvested
				vLoose += row.ExcessViolations()
			case gMax:
				hTight += row.Harvested
				vTight += row.ExcessViolations()
			}
		}
		out += fmt.Sprintf(
			"\nSLO guard tradeoff: tightening the guard %g → %g trades harvest "+
				"%.2fs → %.2fs against excess violations %d → %d over the same "+
				"arrival traces.\n",
			gMin, gMax, hLoose.Seconds(), hTight.Seconds(), vLoose, vTight)
	}
	return out
}

// WriteCSV emits one row per sweep cell.
func (r *ServingSweepResult) WriteCSV(w io.Writer) error { return writeCSV(w, servingColumns, r.Rows) }
