package experiments

import (
	"io"

	"freeride"
	"freeride/internal/model"
)

// Table1Row compares one side task's throughput on bubbles vs the dedicated
// platforms (paper Table 1, iterations per second).
type Table1Row struct {
	Task string
	// Bubbles is aggregate steps/s harvested via the iterative interface
	// across all eligible workers.
	Bubbles float64
	// ServerII and ServerCPU are dedicated-platform throughputs.
	ServerII  float64
	ServerCPU float64
	// Workers is how many stages served the task.
	Workers int
}

// RatioII reports Bubbles/ServerII (paper: 1.06–2.82×).
func (r Table1Row) RatioII() float64 {
	if r.ServerII == 0 {
		return 0
	}
	return r.Bubbles / r.ServerII
}

// RatioCPU reports Bubbles/ServerCPU (paper: 7–59.9×).
func (r Table1Row) RatioCPU() float64 {
	if r.ServerCPU == 0 {
		return 0
	}
	return r.Bubbles / r.ServerCPU
}

// Table1Result reproduces paper Table 1.
type Table1Result struct {
	Rows []Table1Row
}

// RunTable1 measures every side task's bubble throughput under the
// iterative interface and compares with Server-II / Server-CPU.
func RunTable1(opts Options) (*Table1Result, error) {
	opts.normalize()
	cfg := opts.baseConfig(freeride.MethodIterative)
	rows, err := runCells(opts, evalTasks, func(task model.TaskProfile) string {
		return "table1 " + task.Name
	}, func(task model.TaskProfile) (Table1Row, error) {
		res, err := runOne(cfg, task)
		if err != nil {
			return Table1Row{}, err
		}
		workers := 0
		for _, tw := range res.Tasks {
			if tw.Steps > 0 {
				workers++
			}
		}
		return Table1Row{
			Task:      task.Name,
			Bubbles:   float64(res.TotalSteps()) / res.TrainTime.Seconds(),
			ServerII:  task.ThroughputOn(model.ServerII),
			ServerCPU: task.ThroughputOn(model.ServerCPU),
			Workers:   workers,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table1Result{Rows: rows}, nil
}

// table1Columns follow the paper's layout (steps/s per platform) plus the
// derived ratios.
var table1Columns = []column[Table1Row]{
	{"task", func(r Table1Row) cell { return text(r.Task) }, both},
	{"bubbles_steps_per_s", func(r Table1Row) cell { return fixed(r.Bubbles, 2) }, both},
	{"server_ii_steps_per_s", func(r Table1Row) cell { return fixed(r.ServerII, 2) }, both},
	{"server_cpu_steps_per_s", func(r Table1Row) cell { return fixed(r.ServerCPU, 2) }, both},
	{"ratio_vs_ii", func(r Table1Row) cell { return fixed(r.RatioII(), 2) }, both},
	{"ratio_vs_cpu", func(r Table1Row) cell { return fixed(r.RatioCPU(), 1) }, both},
}

// Render prints the table.
func (r *Table1Result) Render() string {
	return renderTable("Table 1: side task throughput (steps/s) on different platforms", table1Columns, r.Rows)
}

// WriteCSV emits the same rows.
func (r *Table1Result) WriteCSV(w io.Writer) error { return writeCSV(w, table1Columns, r.Rows) }
