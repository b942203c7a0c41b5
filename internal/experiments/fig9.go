package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"freeride"
	"freeride/internal/core"
	"freeride/internal/model"
)

// Figure9Row is one stacked bar of paper Figure 9: how the total bubble
// time divides between productive side-task execution, FreeRide's own
// runtime, bubbles too short for another step, and bubbles unusable because
// no deployed task fits their stage's memory.
type Figure9Row struct {
	Task string
	// Fractions sum to ~1.
	Running      float64
	Runtime      float64
	Insufficient float64
	OOM          float64
	TotalBubble  time.Duration
}

// Figure9Result reproduces paper Figure 9.
type Figure9Result struct {
	Rows []Figure9Row
}

// RunFigure9 measures the bubble-time breakdown for each side task (and the
// mixed workload) under the iterative interface.
func RunFigure9(opts Options) (*Figure9Result, error) {
	opts.normalize()
	cfg := opts.baseConfig(freeride.MethodIterative)
	rows, err := runCells(opts, evalWorkloads(), func(w workload) string {
		return "fig9 " + w.name
	}, func(w workload) (Figure9Row, error) {
		res, err := w.run(cfg)
		if err != nil {
			return Figure9Row{}, err
		}
		return breakdown(w.name, res)
	})
	if err != nil {
		return nil, err
	}
	return &Figure9Result{Rows: rows}, nil
}

// breakdown derives the four shares from the run's counters.
//
//   - Running: GPU kernel time of completed steps.
//   - Insufficient: bubble remainders the program-directed check skipped.
//   - OOM: bubble time on stages where no deployed task fits (for the
//     per-task runs, stages the task is ineligible for; for mixed, none).
//   - Runtime: everything else — the interface's host time, state
//     transitions and their RPC latency, and serving slack.
func breakdown(name string, res *freeride.Result) (Figure9Row, error) {
	cfg, total := res.Config, res.ManagerStats.BubbleTimeTotal
	if total <= 0 {
		return Figure9Row{}, errors.New("no bubble time recorded")
	}

	// Bubble time on stages no task could use (paper "No side task: OOM").
	// Estimate stage shares from the session's profile-less view: recompute
	// eligibility from the model memory layout.
	eligible := map[int]bool{}
	for _, task := range res.Tasks {
		for stage := 0; stage < cfg.Stages; stage++ {
			avail := cfg.LLM.StageMemAvailable(model.ServerI.GPUMemBytes, stage, cfg.Stages, cfg.MicroBatches)
			// Same predicate as Algorithm-1 admission (incl. MPS-limit
			// slack): a stage the manager would reject must count as OOM.
			if core.AdmitsMem(avail, task.Profile.MemBytes, core.DefaultMemSlack) {
				eligible[stage] = true
			}
		}
	}
	// Per-stage bubble time is uniform enough across stages (paper §2.2.1)
	// that stage count ratios approximate the time split.
	oomFrac := float64(cfg.Stages-len(eligible)) / float64(cfg.Stages)

	var running, host, insuff time.Duration
	for _, tw := range res.Tasks {
		running += tw.KernelTime
		host += tw.HostTime
		insuff += tw.InsuffWait
	}
	row := Figure9Row{
		Task:         name,
		TotalBubble:  total,
		OOM:          oomFrac,
		Running:      float64(running) / float64(total),
		Insufficient: float64(insuff) / float64(total),
	}
	row.Runtime = 1 - row.OOM - row.Running - row.Insufficient
	if row.Runtime < 0 {
		row.Runtime = 0
	}
	return row, nil
}

// Render prints the stacked bars.
func (r *Figure9Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9: bubble time breakdown (R=running, r=FreeRide runtime, i=insufficient time, O=no task: OOM)\n")
	const width = 60
	for _, row := range r.Rows {
		bar := stackedBar(width, []float64{row.Running, row.Runtime, row.Insufficient, row.OOM}, []byte{'R', 'r', 'i', 'O'})
		fmt.Fprintf(&b, "%-9s |%s| run %5.1f%% rt %5.1f%% insuff %5.1f%% oom %5.1f%%\n",
			row.Task, bar, 100*row.Running, 100*row.Runtime, 100*row.Insufficient, 100*row.OOM)
	}
	return b.String()
}

func stackedBar(width int, fracs []float64, chars []byte) string {
	bar := make([]byte, 0, width)
	for i, f := range fracs {
		n := int(f*float64(width) + 0.5)
		for j := 0; j < n && len(bar) < width; j++ {
			bar = append(bar, chars[i])
		}
	}
	for len(bar) < width {
		bar = append(bar, ' ')
	}
	return string(bar)
}

var fig9Columns = []column[Figure9Row]{
	{"task", func(r Figure9Row) cell { return text(r.Task) }, both},
	{"running", func(r Figure9Row) cell { return num(r.Running) }, both},
	{"runtime", func(r Figure9Row) cell { return num(r.Runtime) }, both},
	{"insufficient", func(r Figure9Row) cell { return num(r.Insufficient) }, both},
	{"oom", func(r Figure9Row) cell { return num(r.OOM) }, both},
	{"total_bubble_s", func(r Figure9Row) cell { return dur(r.TotalBubble) }, both},
}

// WriteCSV emits one row per breakdown bar (Render draws the bars instead).
func (r *Figure9Result) WriteCSV(w io.Writer) error { return writeCSV(w, fig9Columns, r.Rows) }
