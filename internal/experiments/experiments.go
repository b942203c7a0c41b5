// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.2 and §6) on the simulated testbed. Each harness returns a
// typed result plus a text rendering that prints the same rows/series the
// paper reports (ROADMAP.md states the models, benchmark/README.md the numbers).
//
// The one rule of the package: each of the three jobs every harness has is
// written once. A tabular result declares its columns once (columns.go) and
// both its Render table and its WriteCSV file derive from that list;
// runSession is the only function that runs a session; runCells (pool.go) is
// the only way a grid runs, so every grid is sharded, ordered and labelled
// alike. A new harness adds a row type, a column list and a cell function.
package experiments

import (
	"fmt"

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
	// Cross widens the sweeps that have a fast default slice (schedules,
	// serving) to their full cross product.
	Cross bool
	// Shard/ShardCount split every grid across CI jobs: shard k of n runs
	// only cells whose index mod n equals k. The cell skeleton (and thus the
	// index → cell mapping) is deterministic, so shards partition exactly.
	// ShardCount 0 means 1; a Shard outside [0, ShardCount) is an error.
	Shard      int
	ShardCount int
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
}

// baseConfig is the paper's default setup at the suite's scale, under one
// co-location method.
func (o Options) baseConfig(method freeride.Method) freeride.Config {
	cfg := freeride.DefaultConfig()
	cfg.Method = method
	cfg.Epochs = o.Epochs
	cfg.WorkScale = o.WorkScale
	cfg.Seed = o.Seed
	return cfg
}

// runSession is the one way this package runs a session — nothing else here
// calls Session.Run: the session, whatever submit places on it, the run, and
// the cost report against the (memoized) no-side-task baseline. A serving
// session has no training baseline (its cost is request latency, reported in
// Result.ServingStats), so its Result carries no cost report.
func runSession(cfg freeride.Config, submit func(*freeride.Session) error) (*freeride.Result, error) {
	sess, err := freeride.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := submit(sess); err != nil {
		return nil, err
	}
	res, err := sess.Run()
	if err != nil {
		return nil, err
	}
	if cfg.Serving != nil {
		return res, nil
	}
	tNo, err := freeride.BaselineTrainTime(cfg)
	if err != nil {
		return nil, err
	}
	res.CostReport(tNo)
	return res, nil
}

// everywhere submits one instance of each task to every stage it fits on.
func everywhere(tasks ...model.TaskProfile) func(*freeride.Session) error {
	return func(sess *freeride.Session) error {
		for _, task := range tasks {
			if _, err := sess.SubmitEverywhere(task); err != nil {
				return fmt.Errorf("submit %s: %w", task.Name, err)
			}
		}
		return nil
	}
}

// placement is one explicit Submit. The stage binds the baselines (MPS,
// naive); the FreeRide methods leave the choice to Algorithm 1.
type placement struct {
	task  model.TaskProfile
	stage int
}

// placed submits one instance per placement, in order.
func placed(ps ...placement) func(*freeride.Session) error {
	return func(sess *freeride.Session) error {
		for _, p := range ps {
			if err := sess.Submit(p.task, p.stage); err != nil {
				return fmt.Errorf("submit %s: %w", p.task.Name, err)
			}
		}
		return nil
	}
}

// runOne executes a single co-location run — the tasks submitted everywhere
// they fit; none makes it the no-side-task run — and returns the result with
// its cost report against the matching baseline.
func runOne(cfg freeride.Config, tasks ...model.TaskProfile) (*freeride.Result, error) {
	return runSession(cfg, everywhere(tasks...))
}

// runMixed executes the paper's mixed workload: PageRank, ResNet18, Image
// and VGG19, one instance each; Algorithm 1's memory filter and least-loaded
// choice land them on stages 0–3 respectively.
func runMixed(cfg freeride.Config) (*freeride.Result, error) {
	return runSession(cfg, placed(placement{model.PageRank, 0}, placement{model.ResNet18, 1},
		placement{model.Image, 2}, placement{model.VGG19, 3}))
}

// evalTasks are the six side tasks of paper §6.1.4 in Table-2 order.
var evalTasks = []model.TaskProfile{
	model.ResNet18, model.ResNet50, model.VGG19,
	model.PageRank, model.GraphSGD, model.Image,
}

// workload is one row of Table 2 and Figure 9: what runs beside the main job.
type workload struct {
	name string
	run  func(freeride.Config) (*freeride.Result, error)
}

// evalWorkloads are the six side tasks, each everywhere it fits, then the
// mixed workload.
func evalWorkloads() []workload {
	var ws []workload
	for _, task := range evalTasks {
		ws = append(ws, workload{task.Name, func(cfg freeride.Config) (*freeride.Result, error) {
			return runOne(cfg, task)
		}})
	}
	return append(ws, workload{"mixed", runMixed})
}
