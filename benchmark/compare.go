package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

func readSetFile(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f setFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s: no sets", path)
	}
	return &f, nil
}

// comparable lists what differs between two environments that makes their
// timings incomparable; the commit is expected to differ.
func comparable(a, b environment) []string {
	var diffs []string
	add := func(what string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", what, x, y))
		}
	}
	add("go version", a.GoVersion, b.GoVersion)
	add("nproc", a.NumCPU, b.NumCPU)
	add("GOMAXPROCS", a.GOMAXPROCS, b.GOMAXPROCS)
	add("seed", a.Seed, b.Seed)
	add("seconds", a.Seconds, b.Seconds)
	return diffs
}

// values collects one metric of one workload across the sets of a file.
func values(sets [][]workloadResult, workload, metric string) []float64 {
	var xs []float64
	for _, set := range sets {
		for _, res := range set {
			if res.Workload != workload {
				continue
			}
			if m, ok := res.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// spread is the distance between the quartiles of xs as a share of their
// median; 0 with a single value.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// worsening is how much worse b is than a as a share of a, in the metric's
// own direction: positive is worse.
func worsening(m metricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// separated reports whether every value of one side is better than every
// value of the other.
func separated(old, new []float64) bool {
	so, sn := sorted(old), sorted(new)
	return so[len(so)-1] < sn[0] || sn[len(sn)-1] < so[0]
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge is the noise-aware rule for one (workload, metric) pair: the new
// median may be worse than the old by at most the bound. Where a side's
// own runs spread wider than the bound the pair is unresolved, unless every
// run of one side beats every run of the other.
func judge(m metricSpec, old, new []float64) verdict {
	if len(old) == 0 || len(new) == 0 {
		return verdictUnresolved
	}
	if max(spread(old), spread(new)) > m.Bound && !separated(old, new) {
		return verdictUnresolved
	}
	if worsening(m, median(old), median(new)) > m.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// compareSets prints one row per (workload, end-to-end metric) and returns
// the number of regressed and unresolved rows.
func compareSets(spec *benchSpec, old, new [][]workloadResult) (regressed, unresolved int) {
	fmt.Printf("%-16s %-18s %14s %14s %10s %8s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "change", "bound", "spread-o", "spread-n", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			o, n := values(old, w.Name, m.Name), values(new, w.Name, m.Name)
			v := judge(m, o, n)
			switch v {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			mo, mn := median(o), median(n)
			// The change is new minus old over the old median, whatever the
			// metric's direction; the verdict applies the direction.
			fmt.Printf("%-16s %-18s %14.6g %14.6g %+9.3f%% %7.2f%% %7.2f%% %7.2f%%  %s (%s is better; base %.6g %s)\n",
				w.Name, m.Name, mo, mn, 100*ratio(mn-mo, mo), 100*m.Bound, 100*spread(o), 100*spread(n),
				v, m.Better, mo, m.Unit)
		}
	}
	return regressed, unresolved
}

// compareFiles is -compare OLD.json NEW.json.
func compareFiles(spec *benchSpec, oldPath, newPath string) int {
	old, err := readSetFile(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	newer, err := readSetFile(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	if diffs := comparable(old.Env, newer.Env); len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s and %s are not comparable: %v\n", oldPath, newPath, diffs)
		return 2
	}
	fmt.Printf("old: %s (commit %s, %d sets)\nnew: %s (commit %s, %d sets)\n",
		oldPath, old.Env.Commit, len(old.Sets), newPath, newer.Env.Commit, len(newer.Sets))
	regressed, unresolved := compareSets(spec, old.Sets, newer.Sets)
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}

// selfCheck runs two full sets of the same binary back to back. Any
// end-to-end metric that differs by more than its own bound fails the
// check, and the exact metrics must be identical; the observed difference
// of every metric is printed so the bounds can be revisited with data.
func selfCheck(spec *benchSpec, seed int64, seconds int, outDir string) int {
	var sets [][]workloadResult
	for i := 0; i < 2; i++ {
		set, err := runSet(seed, seconds, false, outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		sets = append(sets, set)
	}
	path := filepath.Join(outDir, fmt.Sprintf("selfcheck-seed%d.json", seed))
	if err := writeSetFile(path, sets); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	bad := 0
	if !allCorrect(sets) {
		fmt.Println("selfcheck: an output check failed")
		bad++
	}
	fmt.Printf("%-16s %-18s %14s %14s %10s %8s  %s\n", "workload", "metric", "first", "second", "differ", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(sets[:1], w.Name, m.Name), values(sets[1:], w.Name, m.Name)
			if len(a) != 1 || len(b) != 1 {
				fmt.Printf("%-16s %-18s missing\n", w.Name, m.Name)
				bad++
				continue
			}
			// The difference is taken against the better of the two, so the
			// check does not depend on which set ran first.
			differ := max(worsening(m, a[0], b[0]), worsening(m, b[0], a[0]))
			status := "ok"
			switch {
			case exactMetrics[m.Name] && a[0] != b[0]:
				status = "exact metric differs"
				bad++
			case differ > m.Bound:
				status = "beyond bound"
				bad++
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %9.3f%% %7.2f%%  %s\n",
				w.Name, m.Name, a[0], b[0], 100*differ, 100*m.Bound, status)
		}
	}
	fmt.Printf("wrote %s\n", path)
	if bad > 0 {
		fmt.Printf("selfcheck FAILED: %d\n", bad)
		return 1
	}
	fmt.Println("selfcheck ok")
	return 0
}
