package main

import (
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"freeride/internal/experiments"
	"freeride/internal/serve"
	"freeride/internal/sidetask"
)

// tinySizes keep the tests inside tier-1's budget; the cell structure of
// every workload is the same as at full size.
var tinySizes = sizes{
	table2Epochs:  2,
	planesEpochs:  12,
	ladderStages:  []int{4, 8},
	ladderEpochs:  1,
	deepStages:    8,
	deepEpochs:    2,
	serveRequests: 48,
	customEpochs:  3,
	realEpochs:    1,
}

func tinyOptions(t *testing.T, trace bool) options {
	return options{
		seed: 1, trace: trace, outDir: t.TempDir(), sizes: tinySizes,
		probes: 0, minIterations: 2, minTraced: 1,
	}
}

// cellDigest renders everything a cell hands to the program under test,
// following the config's pointers.
func cellDigest(c cell) string {
	cfg := c.cfg
	faults, drift, replan, serving := cfg.Faults, cfg.Drift, cfg.Replan, cfg.Serving
	cfg.Faults, cfg.Drift, cfg.Replan, cfg.Serving = nil, nil, nil, nil
	s := fmt.Sprintf("%s|%+v|%+v|custom=%v|ref=%d", c.name, cfg, c.submits, c.custom != nil, c.ref)
	if faults != nil {
		s += fmt.Sprintf("|faults%+v", *faults)
	}
	if drift != nil {
		s += fmt.Sprintf("|drift%+v", *drift)
	}
	if replan != nil {
		s += fmt.Sprintf("|replan%+v", *replan)
	}
	if serving != nil {
		s += fmt.Sprintf("|serving%+v", *serving)
	}
	return s
}

func digests(cells []cell) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = cellDigest(c)
	}
	return out
}

func TestGenerationIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := digests(w.cells(7, tinySizes)), digests(w.cells(7, tinySizes))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different cells", w.name)
		}
		if other := digests(w.cells(8, tinySizes)); reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 generated identical cells", w.name)
		}
	}

	planes7, planes8 := planesCells(7, tinySizes), planesCells(8, tinySizes)
	var faults, drifts int
	for i := range planes7 {
		if f := planes7[i].cfg.Faults; f != nil {
			faults++
			if reflect.DeepEqual(f.Events, planes8[i].cfg.Faults.Events) {
				t.Errorf("%s: fault events do not depend on the seed", planes7[i].name)
			}
		}
		if d := planes7[i].cfg.Drift; d != nil {
			drifts++
			if reflect.DeepEqual(d.Events, planes8[i].cfg.Drift.Events) {
				t.Errorf("%s: drift events do not depend on the seed", planes7[i].name)
			}
		}
	}
	if faults != 13 || drifts != 9 || len(planes7) != 24 {
		t.Errorf("planes-sweep has %d cells, %d with faults, %d with drift; want 24, 13, 9", len(planes7), faults, drifts)
	}

	// The arrival trace is generated inside NewSession from Config.Seed.
	for _, c := range servingCells(7, tinySizes) {
		sc := c.cfg.Serving
		arrivals := func(seed int64) []time.Duration {
			a, err := serve.GenerateArrivals(serve.ArrivalConfig{
				Kind: sc.Trace, Rate: 2, Burstiness: sc.Burstiness, Requests: sc.Requests, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		if c.cfg.Seed != 7 || reflect.DeepEqual(arrivals(7), arrivals(8)) {
			t.Errorf("%s: arrivals do not depend on the seed", c.name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestEmittedMetricsEqualTheSpec runs every workload end to end at tiny
// size: every output check must pass, and the metrics emitted must be
// exactly the ones BENCHMARK.json lists.
func TestEmittedMetricsEqualTheSpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var specWorkloads, ours []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(specWorkloads, ours) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", specWorkloads, ours)
	}
	for _, n := range append(append(names(spec.EndToEnd), names(spec.PerLayer)...), ours...) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
	}
	for name := range exactMetrics {
		found := false
		for _, m := range spec.EndToEnd {
			found = found || m.Name == name
		}
		if !found {
			t.Errorf("exact metric %s is not an end-to-end metric of BENCHMARK.json", name)
		}
	}

	for _, w := range workloads {
		rep := measure(w, tinyOptions(t, false))
		if rep.failed > 0 {
			t.Errorf("%s: %d of %d failed: %v", w.name, rep.failed, rep.attempted, rep.notes)
		}
		if got, want := keys(rep.values), names(spec.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: emitted end-to-end metrics %v, BENCHMARK.json lists %v", w.name, got, want)
		}
		for name, val := range rep.values {
			if val == 0 && name != "setup_s" { // no probe processes under test
				t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
			}
		}
	}

	defer func(d time.Duration) { driverRound = d }(driverRound)
	driverRound = 100 * time.Microsecond
	w, _ := workloadByName("planes-sweep")
	rep := measure(w, tinyOptions(t, true))
	if rep.failed > 0 {
		t.Errorf("traced %s: %d of %d failed: %v", w.name, rep.failed, rep.attempted, rep.notes)
	}
	if got, want := keys(rep.values), names(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("emitted per-layer metrics %v, BENCHMARK.json lists %v", got, want)
	}
	for _, name := range []string{"simtime.dispatch_ns", "core.bubble_cycle_ns", "sidetask.step_goroutine_ns", "nn.resnet18_step_ns", "freeride.run_s"} {
		if rep.values[name] <= 0 {
			t.Errorf("per-layer metric %s = %v, want > 0", name, rep.values[name])
		}
	}
}

func TestTable2CellsEqualRunTable2Rows(t *testing.T) {
	cells := table2Cells(1, tinySizes)
	ref, err := experiments.RunTable2(experiments.Options{
		Epochs: tinySizes.table2Epochs, WorkScale: sidetask.WorkNone, Seed: 1, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(ref.Rows) {
		t.Fatalf("%d cells, RunTable2 has %d rows", len(cells), len(ref.Rows))
	}
	for i, row := range ref.Rows {
		if want := fmt.Sprintf("%v/%s", row.Method, row.Task); cells[i].name != want {
			t.Errorf("cell %d is %s, RunTable2 row is %s", i, cells[i].name, want)
		}
	}
	var tl tally
	it := runIteration(cells, nil, &tl)
	checkTable2(cells, it.cells, 1, tinySizes, &tl)
	if tl.failed > 0 {
		t.Errorf("%d of %d checks failed: %v", tl.failed, tl.attempted, tl.notes)
	}
}

func TestTailIsTheTwoThirdsQuantile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{31, 21}, // the 21st smallest of 31: ten samples beyond it
		{61, 41}, // the same quantile of more samples, not "ten from the top"
		{46, 31},
		{4, 3},
		{1, 1},
	} {
		if got := tail(seq(tc.n)); got != tc.want {
			t.Errorf("tail of 1..%d = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := tail(nil); got != 0 {
		t.Errorf("tail(nil) = %v", got)
	}
}

// TestReferenceKernelIsFixedWork pins the reference clock's tick: the same
// events and the same checksum on every call, so that only the host's speed
// moves its time.
func TestReferenceKernelIsFixedWork(t *testing.T) {
	refState = [refStateWords]int64{}
	refKernel()
	first := refState
	refState = [refStateWords]int64{}
	if d := refKernel(); d <= 0 {
		t.Errorf("reference kernel took %v", d)
	}
	if refState != first {
		t.Error("two reference kernels did different work")
	}
	if got := slowdown(refNominal, 3*refNominal); got != 2 {
		t.Errorf("slowdown(nominal, 3 x nominal) = %v, want 2", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestSpanSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "cell", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "run", Start: 20, End: 50},
		{ID: 2, Parent: 0, Name: "run", Start: 10, End: 30},  // overlaps span 1
		{ID: 3, Parent: 0, Name: "run", Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 1, Name: "inner", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	// children cover [10,50] and [90,100] of the cell: 50 of its 100
	if self["cell"] != 50 {
		t.Errorf("cell self time %v, want 50", self["cell"])
	}
	// run: (30-10) + 20 + 30, span 1 alone has a child
	if self["run"] != 70 {
		t.Errorf("run self time %v, want 70", self["run"])
	}
	if self["inner"] != 10 {
		t.Errorf("inner self time %v, want 10", self["inner"])
	}

	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id) // a nil tracer records nothing and must not panic
	if id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "sim_s_per_wall_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name     string
		m        metricSpec
		old, new []float64
		want     verdict
	}{
		{"within bound", lower, []float64{1, 1.01, 0.99, 1}, []float64{1.05, 1.04, 1.06, 1.05}, verdictOK},
		{"worse beyond bound", lower, []float64{1, 1.01, 0.99, 1}, []float64{1.2, 1.21, 1.19, 1.2}, verdictRegressed},
		{"faster is never a regression", lower, []float64{1, 1.01, 0.99, 1}, []float64{0.5, 0.51, 0.49, 0.5}, verdictOK},
		{"noisy and overlapping", lower, []float64{1, 1.4, 0.8, 1.2}, []float64{1.1, 1.5, 0.9, 1.3}, verdictUnresolved},
		{"noisy but every run worse", lower, []float64{1, 1.4, 0.8, 1.2}, []float64{2, 2.8, 1.6, 2.4}, verdictRegressed},
		{"higher is better", higher, []float64{100, 101}, []float64{80, 81}, verdictRegressed},
		{"single runs", lower, []float64{1}, []float64{1.05}, verdictOK},
		{"missing side", lower, nil, []float64{1}, verdictUnresolved},
	} {
		if got := judge(tc.m, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
