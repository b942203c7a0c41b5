package experiments

import (
	"fmt"
	"time"

	"freeride"
	"freeride/internal/model"
)

// AblationRow is one configuration of a design-choice sweep.
type AblationRow struct {
	Label string
	I     float64
	S     float64
	Steps uint64
	Kills uint64
}

// AblationResult is one sweep.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// ablationLine is one row under its sweep's name: the suite's CSV holds all
// five sweeps in one file.
type ablationLine struct {
	sweep string
	AblationRow
}

var ablationColumns = []column[ablationLine]{
	{"ablation", func(l ablationLine) cell { return text(l.sweep) }, csvOnly},
	{"config", func(l ablationLine) cell { return text(l.Label) }, both},
	{"time_increase", func(l ablationLine) cell { return ratio(l.I) }, both},
	{"cost_savings", func(l ablationLine) cell { return ratio(l.S) }, both},
	{"steps", func(l ablationLine) cell { return count(l.Steps) }, both},
	{"kills", func(l ablationLine) cell { return count(l.Kills) }, both},
}

func (r *AblationResult) lines() []ablationLine {
	lines := make([]ablationLine, len(r.Rows))
	for i, row := range r.Rows {
		lines[i] = ablationLine{r.Name, row}
	}
	return lines
}

// Render prints the sweep.
func (r *AblationResult) Render() string {
	return renderTable("Ablation — "+r.Name, ablationColumns, r.lines())
}

// ablationPoint is one fully configured sweep cell.
type ablationPoint struct {
	label  string
	cfg    freeride.Config
	submit func(*freeride.Session) error
}

// runAblationSweep evaluates the points on the worker pool, preserving
// their order in the result.
func runAblationSweep(opts Options, name string, points []ablationPoint) (*AblationResult, error) {
	rows, err := runCells(opts, points, func(p ablationPoint) string {
		return fmt.Sprintf("ablation %s %s", name, p.label)
	}, func(p ablationPoint) (AblationRow, error) {
		res, err := runSession(p.cfg, p.submit)
		if err != nil {
			return AblationRow{}, err
		}
		row := AblationRow{Label: p.label, I: res.Cost.I, S: res.Cost.S, Steps: res.TotalSteps()}
		for _, ws := range res.WorkerStats {
			row.Kills += ws.GraceKills + ws.InitKills
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{Name: name, Rows: rows}, nil
}

// ablate runs one single-knob sweep: the task everywhere it fits under
// FreeRide iterative, one point per value that set writes into the config.
func ablate[V any](opts Options, name, knob string, task model.TaskProfile, values []V, set func(*freeride.Config, V)) (*AblationResult, error) {
	opts.normalize()
	var points []ablationPoint
	for _, v := range values {
		cfg := opts.baseConfig(freeride.MethodIterative)
		set(&cfg, v)
		points = append(points, ablationPoint{fmt.Sprintf("%s=%v", knob, v), cfg, everywhere(task)})
	}
	return runAblationSweep(opts, name, points)
}

// RunAblationGrace sweeps the framework-enforced grace period. Well-behaved
// iterative tasks should be insensitive to it (the program-directed limit
// does the work); only a pathologically short grace kills legitimate tasks.
func RunAblationGrace(opts Options) (*AblationResult, error) {
	return ablate(opts, "grace period (graphsgd iterative)", "grace", model.GraphSGD,
		[]time.Duration{20 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second},
		func(cfg *freeride.Config, v time.Duration) { cfg.Grace = v })
}

// RunAblationRPCLatency sweeps control-plane latency: higher latency delays
// starts/pauses and erodes harvested steps, but must never corrupt training.
func RunAblationRPCLatency(opts Options) (*AblationResult, error) {
	return ablate(opts, "RPC latency (resnet18 iterative)", "rpc", model.ResNet18,
		[]time.Duration{0, 200 * time.Microsecond, 2 * time.Millisecond, 20 * time.Millisecond},
		func(cfg *freeride.Config, v time.Duration) { cfg.RPCLatency = v })
}

// RunAblationSafetyMargin sweeps the reporter's bubble safety margin:
// larger margins trade harvested steps (lower S) for extra protection
// against overruns (lower I).
func RunAblationSafetyMargin(opts Options) (*AblationResult, error) {
	return ablate(opts, "bubble safety margin (resnet18 iterative)", "margin", model.ResNet18,
		[]time.Duration{0, 10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond},
		func(cfg *freeride.Config, v time.Duration) { cfg.SafetyMargin = v })
}

// RunAblationMultiTask exercises the §8 extension: multiple side tasks
// queued per worker, served sequentially as predecessors finish or die.
func RunAblationMultiTask(opts Options) (*AblationResult, error) {
	opts.normalize()
	// Two tasks per worker: Algorithm 1 balances 8 instances over 4
	// workers.
	var two []placement
	for stage := 0; stage < 4; stage++ {
		two = append(two, placement{model.PageRank, stage}, placement{model.ResNet18, stage})
	}
	return runAblationSweep(opts, "multiple tasks per worker (pagerank + resnet18)", []ablationPoint{
		{"2-per-worker", opts.baseConfig(freeride.MethodIterative), placed(two...)},
	})
}

// RunAblationInterleaved measures FreeRide's harvest when the pipeline
// already uses interleaved (virtual-stage) scheduling — the bubble-
// *reduction* alternative from the paper's related work. Interleaving
// shrinks the bubbles FreeRide feeds on, so the harvest (S) should drop
// while the overhead stays ~1%: the two approaches compose but compete for
// the same idle time.
func RunAblationInterleaved(opts Options) (*AblationResult, error) {
	return ablate(opts, "interleaved pipeline (resnet18 iterative)", "virtual", model.ResNet18,
		[]int{1, 2}, func(cfg *freeride.Config, v int) { cfg.VirtualStages = v })
}
