package experiments

import (
	"io"
	"strings"
)

// Rendered is the common surface of every experiment result: a text
// rendering of the table/figure the harness reproduces. Every Run* harness
// returns a concrete type implementing it.
type Rendered interface{ Render() string }

// CSVWriter is the optional second surface: sweeps that emit machine-read
// CSV (for the CI artifact pipeline) implement it alongside Render. The CLI
// discovers it by type assertion — registering a new sweep with a WriteCSV
// method is all it takes to get -csv support.
type CSVWriter interface{ WriteCSV(w io.Writer) error }

// Entry is one registered experiment: a stable CLI id, a one-line
// description, and the runner. Runners take the shared Options (epochs,
// seed, work scale, shard, cross) and return their typed result through the
// Rendered interface.
type Entry struct {
	Name string
	Desc string
	Run  func(Options) (Rendered, error)
}

// registry is every experiment, in the order `-run all` executes them and
// `-run list` prints them.
var registry = []Entry{
	{"table1", "side-task throughput across platforms", wrap(RunTable1)},
	{"table2", "time increase and cost savings per method", wrap(RunTable2)},
	{"fig1", "epoch timeline, SM occupancy and per-stage memory", wrap(RunFigure1)},
	{"fig2", "bubble shapes and rates across model sizes", wrap(RunFigure2)},
	{"fig7ab", "sensitivity to side-task batch size", wrap(RunFigure7BatchSize)},
	{"fig7cd", "sensitivity to main model size", wrap(RunFigure7ModelSize)},
	{"fig7ef", "sensitivity to micro-batch count", wrap(RunFigure7MicroBatch)},
	{"fig8", "GPU resource limit demonstrations", wrap(RunFigure8)},
	{"fig9", "bubble time breakdown", wrap(RunFigure9)},
	{"faults", "fault-injection sweep: harvest vs recovery overhead", wrap(RunFaultSweep)},
	{"drift", "dynamic-bubble drift sweep: online re-profiling vs profile-once", wrap(RunDriftSweep)},
	{"schedules", "schedule-zoo sweep: harvest vs bubble ratio per schedule", wrap(RunScheduleSweep)},
	{"ablations", "grace period / RPC latency / safety margin sweeps", runAblationSuite},
	{"serving", "inference-serving sweep: harvested GPU-seconds vs p99 SLO violations", wrap(RunServingSweep)},
}

// Registered returns the experiments in registry order.
func Registered() []Entry {
	return append([]Entry(nil), registry...)
}

// Lookup finds an experiment by id.
func Lookup(name string) (Entry, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// wrap lifts a concretely-typed harness into the registry signature.
func wrap[T Rendered](fn func(Options) (T, error)) func(Options) (Rendered, error) {
	return func(o Options) (Rendered, error) {
		r, err := fn(o)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// ablationSuiteResult composes the five ablation harnesses into one
// registry entry, matching the CLI's historical `ablations` id.
type ablationSuiteResult struct {
	parts []*AblationResult
}

func (r *ablationSuiteResult) Render() string {
	var b strings.Builder
	for _, p := range r.parts {
		b.WriteString(p.Render())
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

func (r *ablationSuiteResult) WriteCSV(w io.Writer) error {
	var lines []ablationLine
	for _, p := range r.parts {
		lines = append(lines, p.lines()...)
	}
	return writeCSV(w, ablationColumns, lines)
}

func runAblationSuite(o Options) (Rendered, error) {
	suite := &ablationSuiteResult{}
	for _, f := range []func(Options) (*AblationResult, error){
		RunAblationGrace,
		RunAblationRPCLatency,
		RunAblationSafetyMargin,
		RunAblationMultiTask,
		RunAblationInterleaved,
	} {
		r, err := f(o)
		if err != nil {
			return nil, err
		}
		suite.parts = append(suite.parts, r)
	}
	return suite, nil
}
