package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"freeride"
	"freeride/internal/sidetask"
)

// oracleOpts shrinks the grid's epochs (the bubble pattern repeats per
// epoch) while keeping every method × workload cell.
func oracleOpts() Options {
	o := Options{Epochs: 4, WorkScale: sidetask.WorkNone, Seed: 1}
	o.normalize()
	return o
}

// runOracleGrid executes the FreeRide cells of the Table 2 grid (the ones a
// manager participates in: both interfaces × six tasks + mixed) and returns
// each cell's full Result — training time, per-task work and transitions,
// manager and worker counters, cost metrics. tweak, when non-nil, adjusts
// each cell's config before the run (the dormant-plane oracles use it).
func runOracleGrid(t *testing.T, tweak func(*freeride.Config)) map[string]*freeride.Result {
	t.Helper()
	cellCfg := func(method freeride.Method) freeride.Config {
		cfg := oracleOpts().baseConfig(method)
		if tweak != nil {
			tweak(&cfg)
		}
		return cfg
	}
	out := make(map[string]*freeride.Result)
	for _, method := range []freeride.Method{freeride.MethodIterative, freeride.MethodImperative} {
		for i := range evalTasks {
			res, err := runOne(cellCfg(method), evalTasks[i])
			if err != nil {
				t.Fatalf("%v/%s: %v", method, evalTasks[i].Name, err)
			}
			out[fmt.Sprintf("%v/%s", method, evalTasks[i].Name)] = res
		}
		res, err := runMixed(cellCfg(method))
		if err != nil {
			t.Fatalf("%v/mixed: %v", method, err)
		}
		out[fmt.Sprintf("%v/mixed", method)] = res
	}
	return out
}

// compareOracleGrids asserts two grids are bit-identical modulo the config
// fields the comparison intentionally varies.
func compareOracleGrids(t *testing.T, a, b map[string]*freeride.Result, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: cell counts differ: %d vs %d", what, len(a), len(b))
	}
	for key, ar := range a {
		br, ok := b[key]
		if !ok {
			t.Fatalf("%s: cell %s missing", what, key)
		}
		// The configs intentionally differ; everything observable must not.
		ar.Config, br.Config = freeride.Config{}, freeride.Config{}
		if !reflect.DeepEqual(ar, br) {
			t.Errorf("%s: cell %s diverged:\n%+v\nvs\n%+v", what, key, ar, br)
		}
		if ar.TotalSteps() == 0 {
			t.Errorf("%s: cell %s ran no side-task steps (inert oracle)", what, key)
		}
	}
}

// TestTable2GridRunsEventDriven runs the grid harness itself and
// sanity-checks the headline metrics' signs.
func TestTable2GridRunsEventDriven(t *testing.T) {
	res, err := RunTable2(oracleOpts())
	if err != nil {
		t.Fatal(err)
	}
	meanI, meanS := res.Averages(freeride.MethodIterative)
	if meanI < 0 || meanI > 0.03 {
		t.Errorf("iterative mean I = %.4f, want small positive", meanI)
	}
	if meanS <= 0 {
		t.Errorf("iterative mean S = %.4f, want positive", meanS)
	}
}
