// Command freeride-experiments regenerates the paper's tables and figures
// on the simulated testbed and prints them as text.
//
// Example:
//
//	freeride-experiments -run all -epochs 16
//	freeride-experiments -run table2,fig9
//	freeride-experiments -run list
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"freeride/internal/experiments"
	"freeride/internal/sidetask"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "freeride-experiments:", err)
		os.Exit(1)
	}
}

// csvDir, when set via -csv, receives one <name>.csv per experiment whose
// result implements experiments.CSVWriter.
var csvDir string

func writeCSV(name string, res experiments.Rendered) error {
	if csvDir == "" {
		return nil
	}
	emitter, ok := res.(experiments.CSVWriter)
	if !ok {
		return nil
	}
	f, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		return err
	}
	if err := emitter.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func listIDs() string {
	var b strings.Builder
	for _, e := range experiments.Registered() {
		fmt.Fprintf(&b, "%-9s %s\n", e.Name, e.Desc)
	}
	return b.String()
}

func validIDs() string {
	var names []string
	for _, e := range experiments.Registered() {
		names = append(names, e.Name)
	}
	return strings.Join(names, ",")
}

func run(args []string) error {
	fs := flag.NewFlagSet("freeride-experiments", flag.ContinueOnError)
	which := fs.String("run", "all", "comma-separated experiment ids, 'all', or 'list' (see -list)")
	epochs := fs.Int("epochs", 16, "training epochs per run (paper: 128)")
	seed := fs.Int64("seed", 1, "simulation seed (per-cell seeds of every sweep derive from it)")
	realWork := fs.Bool("realwork", false, "run real side-task computation during sweeps (slower)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	cross := fs.Bool("cross", false, "widen the sweeps that have a fast default slice to their full cross product (schedules, serving)")
	shard := fs.String("shard", "", "run only shard k of n of every experiment's grid, as k/n: the cells whose index mod n is k (fig1 has no grid)")
	fs.StringVar(&csvDir, "csv", "", "directory to write per-sweep CSV files into (every experiment with a CSV emitter)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list || *which == "list" {
		fmt.Print(listIDs())
		return nil
	}
	opts := experiments.Options{Epochs: *epochs, Seed: *seed, WorkScale: sidetask.WorkNone, Cross: *cross}
	if *realWork {
		opts.WorkScale = sidetask.WorkSmall
	}
	if *shard != "" {
		// Atoi, not Sscanf: the whole of each half must be a number.
		k, n, _ := strings.Cut(*shard, "/")
		var errK, errN error
		opts.Shard, errK = strconv.Atoi(k)
		opts.ShardCount, errN = strconv.Atoi(n)
		if err := errors.Join(errK, errN); err != nil {
			return fmt.Errorf("bad -shard %q (want k/n): %w", *shard, err)
		}
		if opts.ShardCount < 1 || opts.Shard < 0 || opts.Shard >= opts.ShardCount {
			return fmt.Errorf("bad -shard %q: k must be in [0,n)", *shard)
		}
	}

	// Resolve every requested id before running anything: an unknown id —
	// even alongside valid ones — is a hard error, not a silent skip.
	var selected []experiments.Entry
	if *which == "all" {
		selected = experiments.Registered()
	} else {
		seen := map[string]bool{}
		for _, name := range strings.Split(*which, ",") {
			name = strings.TrimSpace(name)
			if name == "" || seen[name] {
				continue
			}
			seen[name] = true
			e, ok := experiments.Lookup(name)
			if !ok {
				return fmt.Errorf("unknown experiment %q (valid ids: %s)", name, validIDs())
			}
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("no experiments matched %q (use -list)", *which)
	}
	for _, e := range selected {
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if err := writeCSV(e.Name, res); err != nil {
			return fmt.Errorf("%s: csv: %w", e.Name, err)
		}
		fmt.Printf("===== %s — %s (%.1fs) =====\n%s\n", e.Name, e.Desc, time.Since(start).Seconds(), res.Render())
	}
	return nil
}
