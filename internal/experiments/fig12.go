package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"freeride"
	"freeride/internal/bubble"
	"freeride/internal/model"
	"freeride/internal/pipeline"
	"freeride/internal/trace"
)

// Figure1Result reproduces paper Figure 1: one training epoch's per-stage
// op timeline with SM occupancy (a) and per-stage memory utilization (b).
type Figure1Result struct {
	EpochStart time.Duration
	EpochEnd   time.Duration
	// Ops per stage within the epoch.
	Ops [][]pipeline.OpSpan
	// MemUsed / MemTotal per stage.
	MemUsed  []int64
	MemTotal []int64
	// Bubbles recovered from the training clients' SM-occupancy series, per
	// stage.
	Bubbles []trace.IntervalSet
}

// RunFigure1 draws the second epoch of the 3.6B model's offline profiling
// session — the run the bubble profiler measures.
func RunFigure1(Options) (*Figure1Result, error) {
	sess, err := freeride.ProfileSession(freeride.Config{LLM: model.NanoGPT3B, Stages: 4, MicroBatches: 4})
	if err != nil {
		return nil, err
	}
	tr := sess.Trainer
	starts, ends := tr.CycleTimes()
	out := &Figure1Result{EpochStart: starts[1], EpochEnd: ends[1]}
	for s := 0; s < 4; s++ {
		var ops []pipeline.OpSpan
		for _, op := range tr.OpLog(s) {
			if op.Start >= starts[1] && op.End <= ends[1] {
				ops = append(ops, op)
			}
		}
		out.Ops = append(out.Ops, ops)
		out.MemUsed = append(out.MemUsed, model.NanoGPT3B.StageMemUsed(s, 4, 4))
		out.MemTotal = append(out.MemTotal, model.ServerI.GPUMemBytes)
		out.Bubbles = append(out.Bubbles, tr.Client(s).OccTrace().Below(0.05, starts[1], ends[1]))
	}
	return out, nil
}

// Render draws an ASCII version of Figure 1: per-stage op lanes with
// shaded bubbles, then the memory bar chart.
func (r *Figure1Result) Render() string {
	var b strings.Builder
	span := r.EpochEnd - r.EpochStart
	const cols = 96
	fmt.Fprintf(&b, "Figure 1(a): pipeline ops and bubbles over one epoch (%.2fs, '.'=bubble)\n", span.Seconds())
	for s := len(r.Ops) - 1; s >= 0; s-- {
		lane := make([]byte, cols)
		for i := range lane {
			lane[i] = '.'
		}
		for _, op := range r.Ops[s] {
			c := byte('F')
			switch op.Op.Kind {
			case pipeline.OpBackward:
				c = 'B'
			case pipeline.OpOptimize:
				c = 'O'
			}
			from := int(float64(op.Start-r.EpochStart) / float64(span) * cols)
			to := int(float64(op.End-r.EpochStart) / float64(span) * cols)
			for i := from; i < to && i < cols; i++ {
				if i >= 0 {
					lane[i] = c
				}
			}
		}
		bubbleTime := r.Bubbles[s].Total()
		fmt.Fprintf(&b, "stage %d |%s| bubbles %.2fs (%.1f%%)\n",
			s, lane, bubbleTime.Seconds(), 100*float64(bubbleTime)/float64(span))
	}
	fmt.Fprintf(&b, "\nFigure 1(b): GPU memory utilization per stage ('#'=training, '-'=unutilized)\n")
	for s := range r.MemUsed {
		frac := float64(r.MemUsed[s]) / float64(r.MemTotal[s])
		used := int(frac * 48)
		fmt.Fprintf(&b, "stage %d |%s%s| %4.1f / %.0f GB\n",
			s, strings.Repeat("#", used), strings.Repeat("-", 48-used),
			float64(r.MemUsed[s])/float64(model.GiB), float64(r.MemTotal[s])/float64(model.GiB))
	}
	return b.String()
}

// Figure2Point is one bubble in the Figure 2(a) scatter.
type Figure2Point struct {
	Model    string
	Duration time.Duration
	MemAvail int64
	Type     bubble.Type
	Stage    int
}

// Figure2Stat is one bar group of Figure 2(b).
type Figure2Stat struct {
	Model      string
	MicroBatch int
	EpochTime  time.Duration
	BubbleTime time.Duration // mean per-stage bubble time per epoch
	BubbleRate float64
}

// Figure2Result reproduces paper Figure 2: bubble shape distribution and
// duration/bubble-rate statistics across model sizes (plus the micro-batch-8
// data point of §2.2.2).
type Figure2Result struct {
	Points []Figure2Point
	Stats  []Figure2Stat
}

// RunFigure2 profiles bubbles for 1.2B/3.6B/6B at 4 micro-batches and for
// 3.6B at 8 micro-batches; the scatter takes the 4-micro-batch profiles only.
func RunFigure2(opts Options) (*Figure2Result, error) {
	opts.normalize()
	type config struct {
		llm model.LLM
		mbs int
	}
	type profiled struct {
		points []Figure2Point
		stat   Figure2Stat
	}
	cells, err := runCells(opts, []config{
		{model.NanoGPT1B, 4},
		{model.NanoGPT3B, 4},
		{model.NanoGPT6B, 4},
		{model.NanoGPT3B, 8},
	}, func(c config) string {
		return fmt.Sprintf("fig2 %s/mb%d", c.llm.Name, c.mbs)
	}, func(c config) (out profiled, _ error) {
		prof, err := profileFor(c.llm, c.mbs)
		if err != nil {
			return out, err
		}
		if c.mbs == 4 {
			for _, sp := range prof.Stages {
				for _, tpl := range sp.Templates {
					out.points = append(out.points, Figure2Point{
						Model:    c.llm.Name,
						Duration: tpl.Duration,
						MemAvail: sp.MemAvailable,
						Type:     tpl.Type,
						Stage:    tpl.Stage,
					})
				}
			}
		}
		out.stat = Figure2Stat{
			Model:      c.llm.Name,
			MicroBatch: c.mbs,
			EpochTime:  prof.EpochSpan,
			BubbleTime: prof.TotalBubbleTime() / time.Duration(len(prof.Stages)),
			BubbleRate: prof.BubbleRate(),
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := &Figure2Result{}
	for _, c := range cells {
		out.Points = append(out.Points, c.points...)
		out.Stats = append(out.Stats, c.stat)
	}
	return out, nil
}

// profileFor runs the offline bubble profiler for one configuration.
func profileFor(llm model.LLM, mbs int) (*bubble.Profile, error) {
	cfg := freeride.DefaultConfig()
	cfg.LLM = llm
	cfg.MicroBatches = mbs
	cfg.Epochs = 2
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	return sess.Profile, nil
}

// Figure 2's two panels are two tables; its CSV stacks them, told apart by
// the section column.
var fig2PointColumns = []column[Figure2Point]{
	{"section", func(Figure2Point) cell { return text("point") }, csvOnly},
	{"model", func(p Figure2Point) cell { return text(p.Model) }, both},
	// Panel (a) is the 4-micro-batch profiles; its table does not say so on
	// every line.
	{"microbatches", func(Figure2Point) cell { return count(4) }, csvOnly},
	{"stage", func(p Figure2Point) cell { return count(p.Stage) }, both},
	{"type", func(p Figure2Point) cell { return text(p.Type.String()) }, both},
	{"duration_s", func(p Figure2Point) cell { return dur(p.Duration) }, both},
	{"mem_avail_gib", func(p Figure2Point) cell { return fixed(float64(p.MemAvail)/float64(model.GiB), 1) }, textOnly},
	{"mem_avail_bytes", func(p Figure2Point) cell { return count(p.MemAvail) }, csvOnly},
}

var fig2StatColumns = []column[Figure2Stat]{
	{"section", func(Figure2Stat) cell { return text("stat") }, csvOnly},
	{"model", func(s Figure2Stat) cell { return text(s.Model) }, both},
	{"microbatches", func(s Figure2Stat) cell { return count(s.MicroBatch) }, both},
	{"epoch_s", func(s Figure2Stat) cell { return dur(s.EpochTime) }, both},
	{"bubble_s", func(s Figure2Stat) cell { return dur(s.BubbleTime) }, both},
	{"bubble_rate", func(s Figure2Stat) cell { return ratio(s.BubbleRate) }, both},
}

// Render prints the distribution summary and the statistics bars.
func (r *Figure2Result) Render() string {
	return renderTable("Figure 2(a): bubble shapes under different model sizes", fig2PointColumns, r.Points) +
		renderTable("\nFigure 2(b): durations and bubble rates", fig2StatColumns, r.Stats)
}

// WriteCSV emits the bubble scatter and statistics (two sections).
func (r *Figure2Result) WriteCSV(w io.Writer) error {
	return writeRecords(w, stack(records(fig2PointColumns, r.Points, csvOnly), records(fig2StatColumns, r.Stats, csvOnly)))
}
