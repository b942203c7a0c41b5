package experiments

import (
	"fmt"
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

// registry preserves registration order — the order `-run all` executes in
// and `-run list` prints.
var registry []Entry

// Register adds an experiment runner under a unique id. It panics on a
// duplicate id: registration happens at init time, so a collision is a
// programming error, not a runtime condition.
func Register(name, desc string, run func(Options) (Rendered, error)) {
	for _, e := range registry {
		if e.Name == name {
			panic(fmt.Sprintf("experiments: duplicate id %q", name))
		}
	}
	registry = append(registry, Entry{Name: name, Desc: desc, Run: run})
}

// Registered returns the experiments in registration order.
func Registered() []Entry {
	out := make([]Entry, len(registry))
	copy(out, registry)
	return out
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

func init() {
	Register("table1", "side-task throughput across platforms", wrap(RunTable1))
	Register("table2", "time increase and cost savings per method", wrap(RunTable2))
	Register("fig1", "epoch timeline, SM occupancy and per-stage memory", wrap(RunFigure1))
	Register("fig2", "bubble shapes and rates across model sizes", wrap(RunFigure2))
	Register("fig7ab", "sensitivity to side-task batch size", wrap(RunFigure7BatchSize))
	Register("fig7cd", "sensitivity to main model size", wrap(RunFigure7ModelSize))
	Register("fig7ef", "sensitivity to micro-batch count", wrap(RunFigure7MicroBatch))
	Register("fig8", "GPU resource limit demonstrations", wrap(RunFigure8))
	Register("fig9", "bubble time breakdown", wrap(RunFigure9))
	Register("faults", "fault-injection sweep: harvest vs recovery overhead", wrap(RunFaultSweep))
	Register("drift", "dynamic-bubble drift sweep: online re-profiling vs profile-once", wrap(RunDriftSweep))
	Register("schedules", "schedule-zoo sweep: harvest vs bubble ratio per schedule", wrap(RunScheduleSweep))
	Register("ablations", "grace period / RPC latency / safety margin sweeps", runAblationSuite)
	Register("serving", "inference-serving sweep: harvested GPU-seconds vs p99 SLO violations", wrap(RunServingSweep))
}
