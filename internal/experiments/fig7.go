package experiments

import (
	"fmt"
	"io"

	"freeride"
	"freeride/internal/model"
)

// Figure7Row is one bar of a Figure 7 panel.
type Figure7Row struct {
	Task string
	// X is the swept parameter (batch size, model params-B, micro-batches).
	X string
	I float64
	S float64
	// OOM marks configurations whose dedicated Server-II comparison cannot
	// run (paper's "OOM" annotation: S undefined).
	OOM bool
}

// Figure7Result holds one sensitivity panel pair (time increase + savings).
type Figure7Result struct {
	Panel string
	Rows  []Figure7Row
}

// fig7Job is one bar: FreeRide-iterative running task under cfg, reported
// under the row name (the profile's own name, whatever its batch size) at x.
type fig7Job struct {
	row  string
	x    string
	task model.TaskProfile
	cfg  freeride.Config
}

// runFigure7 runs one panel's bars; id is the panel's experiment id.
func runFigure7(opts Options, id, panel string, jobs []fig7Job) (*Figure7Result, error) {
	rows, err := runCells(opts, jobs, func(j fig7Job) string {
		return fmt.Sprintf("%s %s/%s", id, j.row, j.x)
	}, func(j fig7Job) (Figure7Row, error) {
		res, err := runOne(j.cfg, j.task)
		if err != nil {
			return Figure7Row{}, err
		}
		_, fits := j.task.StepTimeOn(model.ServerII)
		return Figure7Row{Task: j.row, X: j.x, I: res.Cost.I, S: res.Cost.S, OOM: !fits}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure7Result{Panel: id + ": " + panel, Rows: rows}, nil
}

// RunFigure7BatchSize reproduces Figure 7(a,b): FreeRide-iterative with
// model-training side tasks at batch sizes 16..128.
func RunFigure7BatchSize(opts Options) (*Figure7Result, error) {
	opts.normalize()
	cfg := opts.baseConfig(freeride.MethodIterative)
	var jobs []fig7Job
	for _, base := range []model.TaskProfile{model.ResNet18, model.ResNet50, model.VGG19} {
		for _, bs := range []int{16, 32, 64, 96, 128} {
			jobs = append(jobs, fig7Job{base.Name, fmt.Sprintf("b%d", bs), base.WithBatch(bs), cfg})
		}
	}
	return runFigure7(opts, "fig7ab", "batch size sensitivity", jobs)
}

// RunFigure7ModelSize reproduces Figure 7(c,d): all six side tasks against
// 1.2B/3.6B/6B main models.
func RunFigure7ModelSize(opts Options) (*Figure7Result, error) {
	opts.normalize()
	cfg := opts.baseConfig(freeride.MethodIterative)
	var jobs []fig7Job
	for _, task := range evalTasks {
		for _, llm := range model.LLMPresets {
			cfg.LLM = llm
			jobs = append(jobs, fig7Job{task.Name, fmt.Sprintf("%.1fB", llm.ParamsB), task, cfg})
		}
	}
	return runFigure7(opts, "fig7cd", "model size sensitivity", jobs)
}

// RunFigure7MicroBatch reproduces Figure 7(e,f): micro-batch counts 4/6/8.
func RunFigure7MicroBatch(opts Options) (*Figure7Result, error) {
	opts.normalize()
	cfg := opts.baseConfig(freeride.MethodIterative)
	var jobs []fig7Job
	for _, task := range evalTasks {
		for _, mbs := range []int{4, 6, 8} {
			cfg.MicroBatches = mbs
			jobs = append(jobs, fig7Job{task.Name, fmt.Sprintf("mb%d", mbs), task, cfg})
		}
	}
	return runFigure7(opts, "fig7ef", "micro-batch count sensitivity", jobs)
}

var fig7Columns = []column[Figure7Row]{
	{"task", func(r Figure7Row) cell { return text(r.Task) }, both},
	{"x", func(r Figure7Row) cell { return text(r.X) }, both},
	{"time_increase", func(r Figure7Row) cell { return ratio(r.I) }, both},
	{"cost_savings", func(r Figure7Row) cell {
		c := ratio(r.S)
		if r.OOM {
			c.text = "OOM" // the paper's annotation; the CSV says so in its own column
		}
		return c
	}, both},
	{"oom", func(r Figure7Row) cell { return flagged(r.OOM, "OOM") }, csvOnly},
}

// Render prints the panel.
func (r *Figure7Result) Render() string {
	return renderTable("Figure 7 panel — "+r.Panel, fig7Columns, r.Rows)
}

// WriteCSV emits one row per sensitivity point.
func (r *Figure7Result) WriteCSV(w io.Writer) error { return writeCSV(w, fig7Columns, r.Rows) }
