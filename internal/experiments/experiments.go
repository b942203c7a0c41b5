// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.2 and §6) on the simulated testbed. Each harness returns a
// typed result plus a text rendering that prints the same rows/series the
// paper reports (ROADMAP.md states the models, benchmark/README.md the numbers).
package experiments

import (
	"fmt"
	"strings"
	"time"

	"freeride"
	"freeride/internal/model"
	"freeride/internal/sidetask"
)

// Options scale the experiment suite.
type Options struct {
	// Epochs per training run. The paper uses 128; the default 16 keeps
	// the full suite fast while leaving ratios unchanged (epochs are
	// repetitive).
	Epochs int
	// WorkScale controls real side-task computation.
	WorkScale sidetask.WorkScale
	// Seed drives task randomness.
	Seed int64
	// Parallelism bounds how many independent simulations of a grid run
	// concurrently (0 = GOMAXPROCS, 1 = sequential). Sessions are fully
	// isolated and identically seeded, so results are independent of the
	// worker count; only wall-clock changes.
	Parallelism int
	// Cross widens grid sweeps that support it (currently the schedule
	// sweep) from their fast default slice to the full cross product.
	Cross bool
	// Shard/ShardCount split a grid sweep across CI jobs: shard k of n runs
	// only cells whose index mod n equals k. The cell skeleton (and thus the
	// index → cell mapping) is deterministic, so shards partition exactly.
	Shard      int
	ShardCount int
}

// DefaultOptions returns the fast-suite defaults.
func DefaultOptions() Options {
	return Options{Epochs: 16, WorkScale: sidetask.WorkSmall, Seed: 1}
}

func (o *Options) normalize() {
	if o.Epochs <= 0 {
		o.Epochs = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ShardCount <= 0 {
		o.ShardCount = 1
	}
	if o.Shard < 0 || o.Shard >= o.ShardCount {
		o.Shard = 0
	}
}

func (o Options) baseConfig() freeride.Config {
	cfg := freeride.DefaultConfig()
	cfg.Epochs = o.Epochs
	cfg.WorkScale = o.WorkScale
	cfg.Seed = o.Seed
	return cfg
}

// runOne executes a single co-location run and returns the result plus its
// cost report against the matching no-side-task baseline.
func runOne(cfg freeride.Config, tasks []model.TaskProfile) (*freeride.Result, error) {
	tNo, err := freeride.BaselineTrainTime(cfg)
	if err != nil {
		return nil, err
	}
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	for _, task := range tasks {
		if _, err := sess.SubmitEverywhere(task); err != nil {
			return nil, fmt.Errorf("submit %s: %w", task.Name, err)
		}
	}
	res, err := sess.Run()
	if err != nil {
		return nil, err
	}
	res.CostReport(tNo)
	return res, nil
}

// runMixed executes the paper's mixed workload: PageRank, ResNet18, Image
// and VGG19, one instance each; Algorithm 1's memory filter and least-loaded
// choice land them on stages 0–3 respectively.
func runMixed(cfg freeride.Config) (*freeride.Result, error) {
	tNo, err := freeride.BaselineTrainTime(cfg)
	if err != nil {
		return nil, err
	}
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	// Submission order matters for the baselines (explicit stages) and is
	// resolved by Algorithm 1 for the FreeRide methods.
	mix := []struct {
		task  model.TaskProfile
		stage int
	}{
		{model.PageRank, 0},
		{model.ResNet18, 1},
		{model.Image, 2},
		{model.VGG19, 3},
	}
	for _, m := range mix {
		if err := sess.Submit(m.task, m.stage); err != nil {
			return nil, fmt.Errorf("submit %s: %w", m.task.Name, err)
		}
	}
	res, err := sess.Run()
	if err != nil {
		return nil, err
	}
	res.CostReport(tNo)
	return res, nil
}

// Table is a minimal text-table renderer for experiment output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render produces an aligned text table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

func secs(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }

// evalTasks are the six side tasks of paper §6.1.4 in Table-2 order.
var evalTasks = []model.TaskProfile{
	model.ResNet18, model.ResNet50, model.VGG19,
	model.PageRank, model.GraphSGD, model.Image,
}
