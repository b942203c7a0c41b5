// Command benchmark is the repository's yardstick: seven workloads, eleven
// end-to-end metrics with regression bounds, and per-layer attribution. It
// drives the system only through public functions and checks every output.
// BENCHMARK.json at the repository root names the metrics, their units,
// directions and bounds; README.md in this directory defines them.
//
//	go run ./benchmark                      # one set: every workload, fresh process each
//	go run ./benchmark -trace 1             # traced set: per-layer metrics and span files
//	go run ./benchmark -workload table2-grid -seed 2 -seconds 10 -trace 0
//	go run ./benchmark -compare OLD.json NEW.json
//	go run ./benchmark -selfcheck
//
// Run it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the single place metric names, units,
// directions and bounds are written down.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run the benchmark from the repository root)", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// exactMetrics repeat bit for bit for a fixed seed: two runs of the same
// code must report identical values.
var exactMetrics = map[string]bool{
	"events_per_kernel": true, "harvest_factor": true, "main_slowdown": true,
	"savings_factor": true, "closed_form_ratio": true,
}

// environment is written into every result file so two files can be
// checked for comparability before they are compared.
type environment struct {
	Command    []string `json:"command"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Commit     string   `json:"commit"`
	Time       string   `json:"time"`
}

var currentEnv environment

// commit names the checked-out commit, marked when the tree has
// uncommitted changes; "unknown" in a checkout without git metadata.
func commit() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	name := strings.TrimSpace(string(head))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		name += "-dirty"
	}
	return name
}

// driverLine is the last line of standard output in -workload mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(rep report, specs []metricSpec) {
	for _, m := range specs {
		fmt.Printf("%-16s %-34s %16.6g %s\n", rep.workload, m.Name, rep.values[m.Name], m.Unit)
	}
	for _, r := range rep.raw {
		fmt.Printf("%-16s %-34s %16.6g %s\n", rep.workload, r.name, r.value, r.unit)
	}
	fmt.Printf("%-16s %-34s %16d of %d attempted (%d warm iterations, digest %s)\n",
		rep.workload, "failed", rep.failed, rep.attempted, rep.iterations, rep.digest)
	for _, n := range rep.notes {
		fmt.Printf("%-16s FAILED: %s\n", rep.workload, n)
	}
}

// runWorkload is -workload mode: measure in this process, print every
// metric by name with its unit, then the driver's JSON line.
func runWorkload(spec *benchSpec, name string, seed int64, seconds int, trace bool, outDir string) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	opt := defaultOptions()
	opt.seed, opt.seconds, opt.trace, opt.outDir = seed, time.Duration(seconds)*time.Second, trace, outDir
	rep := measure(w, opt)
	specs := spec.metrics(trace)
	line := driverLine{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		val, ok := rep.values[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s of BENCHMARK.json was not measured\n", m.Name)
			return 2
		}
		line.Metrics[m.Name] = metricValue{Value: val, Unit: m.Unit}
	}
	printReport(rep, specs)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// workloadResult is one workload's entry of a result file: the driver's
// line under the workload's name.
type workloadResult struct {
	Workload string `json:"workload"`
	driverLine
}

// setFile is one result file: the environment and one or more sets, each a
// result per workload.
type setFile struct {
	Env  environment        `json:"env"`
	Sets [][]workloadResult `json:"sets"`
}

// runSet runs every workload once, each in its own fresh child process:
// the profile and baseline memos of package freeride are process-global, so
// in one process the workload order would change setup_s.
func runSet(seed int64, seconds int, trace bool, outDir string) ([]workloadResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	var results []workloadResult
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", traceArg, "-out", outDir)
		cmd.Stderr = os.Stderr
		// A child that fails a check exits 1 after printing its line, so the
		// line decides; the exit error matters only when there is none.
		out, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		res := workloadResult{Workload: w.name}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.driverLine); err != nil || res.Metrics == nil {
			return nil, fmt.Errorf("%s: no result line (%v): %s", w.name, runErr, out)
		}
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		results = append(results, res)
	}
	return results, nil
}

func writeSetFile(path string, sets [][]workloadResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(setFile{Env: currentEnv, Sets: sets}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func allCorrect(sets [][]workloadResult) bool {
	for _, set := range sets {
		for _, rep := range set {
			if !rep.Correct {
				return false
			}
		}
	}
	return true
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload in this process and print the driver's JSON line last")
		seed         = flag.Int64("seed", 1, "workload seed: feeds Config.Seed and the fault, drift and arrival generators")
		seconds      = flag.Int("seconds", 0, "seconds of warm iterations per workload (0 = run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		runs         = flag.Int("runs", 1, "sets to run back to back into one result file")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for result and span files")
		compare      = flag.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json")
		selfcheck    = flag.Bool("selfcheck", false, "run two sets of this binary and fail if they disagree beyond the bounds")
		probe        = flag.Bool("setup-probe", false, "internal: run the cold iteration of -workload and exit")
	)
	flag.Parse()

	if *probe {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		return setupProbe(w, *seed)
	}

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	currentEnv = environment{
		Command: os.Args, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds,
		Commit: commit(), Time: time.Now().UTC().Format(time.RFC3339),
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs OLD.json NEW.json")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	case *workloadName != "":
		return runWorkload(spec, *workloadName, *seed, *seconds, *trace == 1, *outDir)
	case *selfcheck:
		return selfCheck(spec, *seed, *seconds, *outDir)
	}

	fmt.Printf("go %s, nproc %d, GOMAXPROCS %d, seed %d, %d s per workload, commit %s\n",
		currentEnv.GoVersion, currentEnv.NumCPU, currentEnv.GOMAXPROCS, *seed, *seconds, currentEnv.Commit)
	var sets [][]workloadResult
	for i := 0; i < *runs; i++ {
		set, err := runSet(*seed, *seconds, *trace == 1, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		sets = append(sets, set)
	}
	kind := "run"
	if *trace == 1 {
		kind = "layers"
	}
	path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d.json", kind, *seed))
	if err := writeSetFile(path, sets); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Printf("wrote %s\n", path)
	if !allCorrect(sets) {
		fmt.Println("FAILED: at least one output check did not pass")
		return 1
	}
	return 0
}
