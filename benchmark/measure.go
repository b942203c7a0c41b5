package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"freeride/internal/experiments"
	"freeride/internal/sidetask"
)

// minSamples is what a run reports on when the host is so slow that the
// warm loop reaches its hard stop, a fifth past --seconds, before the
// iterations and probes it wants are done: the driver's time cap counts
// every run, and the host has been seen at a quarter of its quiet speed.
const minSamples = 3

// options are the knobs of one measured run. The program uses
// defaultOptions; the tests shrink the sizes and the sample counts.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
	sizes   sizes
	// probes is how many fresh processes sample setup_s. They are spaced
	// evenly over the warm loop, not bunched before it: the host's speed
	// wanders within a run too, and five probes in the first three seconds
	// read one moment of it (their median spread 10–16% between runs).
	probes int
	// minIterations keeps the tail statistic meaningful when --seconds is
	// short or the host slow: short of the hard stop, a timed run goes on
	// until 21 warm iterations are done, which leaves seven beyond the 2/3
	// quantile. The sizes give a 15 s run 35 or more (ten beyond) on a quiet
	// host.
	minIterations int
	// minTraced is the least number of traced warm iterations (and of the
	// untraced ones they alternate with) in a traced run.
	minTraced int
}

func defaultOptions() options {
	return options{sizes: fullSizes, probes: 7, minIterations: 21, minTraced: 5}
}

// report is what one run of one workload produced.
type report struct {
	workload string
	tally
	// iterations is the number of untraced warm iterations; digest the
	// result digest every iteration reproduced.
	iterations int
	digest     string
	values     map[string]float64
	// raw are the wall-clock readings behind the reference-second metrics
	// and the host slowdown that relates them; printed, never compared.
	raw []rawValue
}

type rawValue struct {
	name  string
	value float64
	unit  string
}

// probePrefix starts the one line a set-up probe prints: the digest of its
// cold iteration, so the parent can check that fresh processes agree.
const probePrefix = "probe-digest "

// setupProbe is the body of a probe child: generate, run the cold
// iteration, print its digest. The parent times the whole process.
func setupProbe(w workload, seed int64) int {
	var tl tally
	cells := w.cells(seed, fullSizes)
	cold := runIteration(cells, nil, &tl)
	fmt.Printf("%s%x\n", probePrefix, iterationDigest(cold.cells))
	if tl.failed > 0 {
		for _, n := range tl.notes {
			fmt.Fprintln(os.Stderr, "probe:", n)
		}
		return 1
	}
	return 0
}

// probeSetup times one fresh process from start to the end of its cold
// iteration: input generation, the offline bubble profile, the baseline
// memo fill and the first run of every cell. It returns the digest the
// process computed.
func probeSetup(w workload, seed int64, tl *tally) (elapsed time.Duration, digest string, ok bool) {
	self, err := os.Executable()
	tl.check(err == nil, "setup probe: %v", err)
	if err != nil {
		return 0, "", false
	}
	cmd := exec.Command(self, "-setup-probe", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	start := time.Now()
	out, err := cmd.Output()
	elapsed = time.Since(start)
	tl.check(err == nil, "setup probe: %v", err)
	if err != nil {
		return 0, "", false
	}
	digest, _ = strings.CutPrefix(strings.TrimSpace(string(out)), probePrefix)
	return elapsed, digest, true
}

// checkTable2 compares the cold iteration of the table2-grid cells with
// experiments.RunTable2 on the same options: I, S, steps and step events of
// every row must be equal bit for bit.
func checkTable2(cells []cell, outs []cellOut, seed int64, sz sizes, tl *tally) {
	ref, err := experiments.RunTable2(experiments.Options{
		Epochs: sz.table2Epochs, WorkScale: sidetask.WorkNone, Seed: seed, Parallelism: 1,
	})
	tl.check(err == nil, "RunTable2: %v", err)
	if err != nil {
		return
	}
	tl.check(len(ref.Rows) == len(cells), "RunTable2 has %d rows, the workload %d cells", len(ref.Rows), len(cells))
	for i, row := range ref.Rows {
		if i >= len(cells) {
			break
		}
		o := outs[i]
		want := fmt.Sprintf("%v/%s", row.Method, row.Task)
		tl.check(cells[i].name == want && o.costI == row.I && o.costS == row.S &&
			o.counts.inlineSteps == row.Steps && o.counts.stepEvents == row.StepEvents,
			"table2 row %d: cell %s I=%v S=%v steps=%d stepEvents=%d, RunTable2 %s I=%v S=%v steps=%d stepEvents=%d",
			i, cells[i].name, o.costI, o.costS, o.counts.inlineSteps, o.counts.stepEvents,
			want, row.I, row.S, row.Steps, row.StepEvents)
	}
}

// measure runs one workload in this process: the cold iteration, then warm
// iterations for the given time with the set-up probes (timed runs only)
// spaced evenly among them, the reference kernel timed between any two of
// those. With tracing on, every other warm iteration records spans and the
// layer drivers run afterwards.
func measure(w workload, opt options) report {
	seed, trace := opt.seed, opt.trace
	rep := report{workload: w.name, values: map[string]float64{}}
	v, tl := rep.values, &rep.tally

	var tr *tracer
	if trace {
		tr = newTracer()
	}
	genStart := time.Now()
	cells := w.cells(seed, opt.sizes)
	generate := time.Since(genStart)

	cold := runIteration(cells, tr, tl)
	coldSpans := 0
	if tr != nil {
		coldSpans = len(tr.spans)
	}
	digest := iterationDigest(cold.cells)
	rep.digest = fmt.Sprintf("%x", digest)
	if w.name == "table2-grid" {
		checkTable2(cells, cold.cells, seed, opt.sizes, tl)
	}
	ex := summarize(cells, cold.cells)

	// walls are the untraced warm iterations in reference seconds, rawWalls
	// the same on the wall clock; slows is the host slowdown beside every
	// warm iteration, traced or not. refs are the reference timings in
	// order: whatever is timed runs between two of them. rawSetup are the
	// probes on the wall clock and probeAt[i] the index of the reference
	// timing before probe i.
	var (
		walls, rawWalls, tracedWalls, slows, allocs, allocBytes []float64
		rawSetup                                                []float64
		probeAt                                                 []int
		perIter                                                 []map[string]time.Duration
		m0, m1                                                  runtime.MemStats
	)
	probes := opt.probes
	if trace {
		probes = 0
	}
	// Probe i is due at (i + 1/2) / probes of the run.
	probeDue := func(i int) time.Duration { return opt.seconds * time.Duration(2*i+1) / time.Duration(2*probes) }
	loopStart := time.Now()
	refs := []time.Duration{refKernel()}
	for n := 0; ; n++ {
		elapsed := time.Since(loopStart)
		enough := len(walls) >= opt.minIterations && len(rawSetup) >= probes
		if trace {
			enough = len(tracedWalls) >= opt.minTraced
		}
		hardStop := opt.seconds > 0 && elapsed >= opt.seconds*6/5 &&
			len(walls) >= minSamples && len(rawSetup) >= min(minSamples, probes)
		if elapsed >= opt.seconds && (enough || hardStop) {
			break
		}
		traced := trace && n%2 == 1
		var itTr *tracer
		lo := 0
		if traced {
			itTr = tr
			lo = len(tr.spans)
		}
		runtime.ReadMemStats(&m0)
		it := runIteration(cells, itTr, tl)
		runtime.ReadMemStats(&m1)
		refs = append(refs, refKernel())
		slow := slowdown(refs[len(refs)-2], refs[len(refs)-1])
		slows = append(slows, slow)
		tl.check(iterationDigest(it.cells) == digest, "warm iteration %d: result digest differs from the cold iteration's", n)
		if traced {
			tracedWalls = append(tracedWalls, it.wall.Seconds())
			perIter = append(perIter, selfTimes(tr.spans[lo:]))
			continue
		}
		walls = append(walls, it.wall.Seconds()/slow)
		rawWalls = append(rawWalls, it.wall.Seconds())
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))

		if len(rawSetup) < probes && time.Since(loopStart) >= probeDue(len(rawSetup)) {
			took, probeDigest, ok := probeSetup(w, seed, tl)
			refs = append(refs, refKernel())
			if !ok {
				probes-- // tallied as failed; do not wait for it
				continue
			}
			tl.check(probeDigest == rep.digest, "setup probe %d digest %s differs from this process's %s", len(rawSetup), probeDigest, rep.digest)
			rawSetup = append(rawSetup, took.Seconds())
			probeAt = append(probeAt, len(refs)-2)
		}
	}
	rep.iterations = len(walls)

	// A warm iteration is divided by the slowdown of the two reference
	// timings around it: one burst on either spoils one of 35–60 samples and
	// the median does not see it. A probe is one of seven, so it takes the
	// median of the six reference timings around it instead.
	setup := make([]float64, len(rawSetup))
	for i, k := range probeAt {
		around := make([]float64, 0, 6)
		for _, r := range refs[max(0, k-2):min(len(refs), k+4)] {
			around = append(around, r.Seconds())
		}
		setup[i] = rawSetup[i] / (median(around) / refNominal.Seconds())
	}

	if !trace {
		v["setup_s"] = median(setup)
		wall := median(walls)
		v["wall_s"] = wall
		v["wall_tail_s"] = tail(walls)
		v["sim_s_per_wall_s"] = ratio(ex.simSeconds, wall)
		rep.raw = append(rep.raw,
			rawValue{"setup_s (wall clock)", median(rawSetup), "s"},
			rawValue{"wall_s (wall clock)", median(rawWalls), "s"},
			rawValue{"wall_tail_s (wall clock)", tail(rawWalls), "s"},
			rawValue{"host slowdown", median(slows), "ratio"})
		v["events_per_kernel"] = ex.eventsPerKernel
		v["allocs"] = median(allocs)
		v["alloc_mb"] = median(allocBytes) / 1e6
		v["harvest_factor"] = ex.harvestFactor
		v["main_slowdown"] = ex.slowdown
		v["savings_factor"] = ex.savingsFactor
		v["closed_form_ratio"] = ex.closedForm
	} else {
		var k counts
		for _, o := range cold.cells {
			k.add(o.counts)
		}
		coldSelf := selfTimes(tr.spans[:coldSpans])
		layerMetrics(v, layerInputs{
			cells: cells, counts: k, exact: ex, generate: generate,
			coldSelf: coldSelf, perIter: perIter,
			untracedWall: median(rawWalls), tracedWall: median(tracedWalls),
			hostSlowdown: median(slows),
		})
		if err := writeTrace(opt.outDir, w.name, tr.spans); err != nil {
			tl.check(false, "trace file: %v", err)
		}
	}

	return rep
}

func writeTrace(outDir, workload string, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Env   environment `json:"env"`
		Spans []span      `json:"spans"`
	}{currentEnv, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), data, 0o644)
}
