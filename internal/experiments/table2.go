package experiments

import (
	"fmt"
	"io"
	"time"

	"freeride"
)

// Table2Row is one cell pair of paper Table 2.
type Table2Row struct {
	Task   string
	Method freeride.Method
	I      float64 // time increase
	S      float64 // cost savings
	Steps  uint64
	// StepEvents counts the engine events the side tasks' step loops
	// dispatched (StepEvents/Steps is the bench's sidetask_events_per_step).
	StepEvents uint64
	TNo        time.Duration
	TWith      time.Duration
}

// Table2Result reproduces paper Table 2: time increase I and cost savings S
// of DeepSpeed training with side tasks under FreeRide (iterative and
// imperative), direct MPS, and naive co-location — for the six side tasks
// and the mixed workload.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Methods are the four co-location approaches compared.
var Table2Methods = []freeride.Method{
	freeride.MethodIterative,
	freeride.MethodImperative,
	freeride.MethodMPS,
	freeride.MethodNaive,
}

// RunTable2 executes all method × workload combinations (6 tasks + mixed).
// The cells are independent simulations and run on a bounded worker pool;
// row order and every cell value are identical to the sequential run.
func RunTable2(opts Options) (*Table2Result, error) {
	opts.normalize()
	type job struct {
		method freeride.Method
		workload
	}
	var jobs []job
	for _, method := range Table2Methods {
		for _, w := range evalWorkloads() {
			jobs = append(jobs, job{method, w})
		}
	}
	rows, err := runCells(opts, jobs, func(j job) string {
		return fmt.Sprintf("table2 %v/%s", j.method, j.name)
	}, func(j job) (Table2Row, error) {
		res, err := j.run(opts.baseConfig(j.method))
		if err != nil {
			return Table2Row{}, err
		}
		return Table2Row{
			Task:       j.name,
			Method:     j.method,
			I:          res.Cost.I,
			S:          res.Cost.S,
			Steps:      res.TotalSteps(),
			StepEvents: res.TotalStepEvents(),
			TNo:        res.Cost.TNo,
			TWith:      res.Cost.TWith,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table2Result{Rows: rows}, nil
}

// Row finds a cell pair by task and method.
func (r *Table2Result) Row(task string, method freeride.Method) (Table2Row, bool) {
	for _, row := range r.Rows {
		if row.Task == task && row.Method == method {
			return row, true
		}
	}
	return Table2Row{}, false
}

// Averages reports mean I and S per method (the paper's headline "7.8%
// average cost savings with 1.1% overhead" aggregates the iterative rows).
func (r *Table2Result) Averages(method freeride.Method) (meanI, meanS float64) {
	n := 0
	for _, row := range r.Rows {
		if row.Method != method || row.Task == "mixed" {
			continue
		}
		meanI += row.I
		meanS += row.S
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return meanI / float64(n), meanS / float64(n)
}

// Render prints the table in the paper's layout: one line per workload, an
// I and an S column per method. A cell another shard ran prints "-".
func (r *Table2Result) Render() string {
	cols := []column[string]{{"Side task", text, both}}
	for _, m := range Table2Methods {
		pick := func(v func(Table2Row) float64) func(string) cell {
			return func(task string) cell {
				if row, ok := r.Row(task, m); ok {
					return ratio(v(row))
				}
				return text("-")
			}
		}
		cols = append(cols,
			column[string]{m.String() + " I", pick(func(row Table2Row) float64 { return row.I }), both},
			column[string]{"S", pick(func(row Table2Row) float64 { return row.S }), both})
	}
	var tasks []string
	for _, w := range evalWorkloads() {
		tasks = append(tasks, w.name)
	}
	iter, iterS := r.Averages(freeride.MethodIterative)
	return renderTable("Table 2: time increase I and cost savings S of running DeepSpeed with side tasks",
		cols, tasks) +
		fmt.Sprintf("average (iterative, excl. mixed): I=%s S=%s\n", pct(iter), pct(iterS))
}

// table2Columns are the long form of the same cells, one row per (task,
// method), for the CSV.
var table2Columns = []column[Table2Row]{
	{"task", func(r Table2Row) cell { return text(r.Task) }, both},
	{"method", func(r Table2Row) cell { return text(r.Method.String()) }, both},
	{"time_increase", func(r Table2Row) cell { return ratio(r.I) }, both},
	{"cost_savings", func(r Table2Row) cell { return ratio(r.S) }, both},
	{"steps", func(r Table2Row) cell { return count(r.Steps) }, both},
	{"t_no_s", func(r Table2Row) cell { return dur(r.TNo) }, both},
	{"t_with_s", func(r Table2Row) cell { return dur(r.TWith) }, both},
}

// WriteCSV emits one row per (task, method) cell.
func (r *Table2Result) WriteCSV(w io.Writer) error { return writeCSV(w, table2Columns, r.Rows) }
