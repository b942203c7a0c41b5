package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"freeride"
	"freeride/internal/core"
	"freeride/internal/pipeline"
)

// counts are the exact per-layer counters of one or more cells, read from
// public accessors after each Run. They repeat bit for bit for a fixed seed.
type counts struct {
	events      uint64
	kernels     uint64
	shareHits   uint64
	shareMisses uint64
	fusedFolds  uint64
	// inlineSteps ran on the event loop, goroutineSteps on the goroutine
	// shell (user-defined tasks); computeSteps are the steps of WorkSmall
	// cells by the task whose host computation they ran.
	inlineSteps    uint64
	goroutineSteps uint64
	computeSteps   map[string]uint64
	stepEvents     uint64
	insuffWait     time.Duration
	mgr            core.ManagerStats
	starts         uint64
	pauses         uint64
	graceKills     uint64
	requests       int
	batches        int
	violations     int
	p99            time.Duration // largest over the cells
	injected       uint64
}

func (c *counts) add(o counts) {
	c.events += o.events
	c.kernels += o.kernels
	c.shareHits += o.shareHits
	c.shareMisses += o.shareMisses
	c.fusedFolds += o.fusedFolds
	c.inlineSteps += o.inlineSteps
	c.goroutineSteps += o.goroutineSteps
	for task, n := range o.computeSteps {
		if c.computeSteps == nil {
			c.computeSteps = map[string]uint64{}
		}
		c.computeSteps[task] += n
	}
	c.stepEvents += o.stepEvents
	c.insuffWait += o.insuffWait
	c.mgr.RPCs += o.mgr.RPCs
	c.mgr.Pings += o.mgr.Pings
	c.mgr.BubblesAdded += o.mgr.BubblesAdded
	c.mgr.BubblesServed += o.mgr.BubblesServed
	c.mgr.BubblesExpired += o.mgr.BubblesExpired
	c.mgr.BubbleTimeTotal += o.mgr.BubbleTimeTotal
	c.mgr.BubbleTimeServed += o.mgr.BubbleTimeServed
	c.mgr.SLODeferred += o.mgr.SLODeferred
	c.mgr.Replans += o.mgr.Replans
	c.mgr.Replacements += o.mgr.Replacements
	c.mgr.LostWork += o.mgr.LostWork
	c.starts += o.starts
	c.pauses += o.pauses
	c.graceKills += o.graceKills
	c.requests += o.requests
	c.batches += o.batches
	c.violations += o.violations
	c.p99 = max(c.p99, o.p99)
	c.injected += o.injected
}

// tally counts operations attempted and failed: session builds, submits,
// runs, side tasks, serving requests and output checks.
type tally struct {
	attempted int
	failed    int
	// notes describes the first few failures for the report.
	notes []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	failed := 1
	if ok {
		failed = 0
	}
	t.count(1, failed, format, args...)
}

// count tallies a batch of operations; the note is kept when any failed.
func (t *tally) count(attempted, failed int, format string, args ...any) {
	t.attempted += attempted
	t.failed += failed
	if failed > 0 && len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// cellOut is what one run of one cell produced.
type cellOut struct {
	ran     bool
	digest  uint64
	simTime time.Duration // TrainTime, or the serving makespan
	stages  int
	// workDone is the SM-seconds of every kernel the devices completed
	// (main job and side tasks); harvest is the side tasks' kernel time and
	// sideWork their SM-seconds (kernel time x SM demand).
	workDone float64
	harvest  time.Duration
	sideWork float64
	// slowdown is T_with/T_no for a training cell (1 without side tasks);
	// serving cells get theirs from the reference cell's p99 afterwards.
	slowdown float64
	// costS and costI are the paper's S and I against the MethodNone
	// baseline; hasCost is false where no baseline applies.
	costS, costI float64
	hasCost      bool
	// closedForm is max(measured/closed, closed/measured) of the
	// plane-free MethodNone cycle span against the model's closed form; 0
	// where the cell carries none (serving cells with side tasks).
	closedForm float64
	counts     counts
}

// result digests everything observable of a run that must repeat bit for
// bit: times, per-task work, manager / worker / fault / serving statistics
// and the number of engine events.
func resultDigest(res *freeride.Result, events uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%+v|%+v|%+v|%+v|%+v|%d", res.TrainTime, res.Tasks,
		res.ManagerStats, res.WorkerStats, res.FaultStats, res.ServingStats, events)
	return h.Sum64()
}

// opsPerCycle is the number of pipeline ops one epoch of a training cell
// executes, from the public plan generator.
func opsPerCycle(cfg freeride.Config) (uint64, error) {
	virtual := cfg.VirtualStages
	if cfg.Schedule == pipeline.ScheduleInterleaved && virtual < 2 {
		virtual = 2 // the default NewSession applies
	}
	plan, err := pipeline.BuildPlan(cfg.Schedule, cfg.Stages, cfg.MicroBatches, virtual)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, chunk := range plan.Chunks {
		n += uint64(len(chunk))
	}
	return n, nil
}

// closedFormBound is the largest accepted closed-form ratio: the 1F1B,
// GPipe and zero-bubble forms are exact up to the transfer latency they
// leave out; the interleaved form is a documented lower bound (ROADMAP).
func closedFormBound(sched pipeline.ScheduleKind) float64 {
	if sched == pipeline.ScheduleInterleaved {
		return 1.12
	}
	return 1.01
}

func ratioAbove1(a, b time.Duration) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	if a < b {
		a, b = b, a
	}
	return float64(a) / float64(b)
}

// runCell drives one cell through the public API — BaselineTrainTime,
// NewSession, Submit*, Run — wraps each call in a span, reads the counters
// and checks the outputs. A failed call is tallied and ends the cell.
func runCell(c cell, tr *tracer, parent int, tl *tally) cellOut {
	out := cellOut{stages: c.cfg.Stages, slowdown: 1}
	cellSpan := tr.begin("cell", parent)
	defer tr.end(cellSpan)

	training := c.cfg.Serving == nil
	var tNo time.Duration
	if training && c.cfg.Method != freeride.MethodNone {
		sp := tr.begin("baseline", cellSpan)
		t, err := freeride.BaselineTrainTime(c.cfg)
		tr.end(sp)
		tl.check(err == nil, "%s: baseline: %v", c.name, err)
		if err != nil {
			return out
		}
		tNo = t
	}

	sp := tr.begin("new_session", cellSpan)
	sess, err := freeride.NewSession(c.cfg)
	tr.end(sp)
	tl.check(err == nil, "%s: NewSession: %v", c.name, err)
	if err != nil {
		return out
	}

	sp = tr.begin("submit", cellSpan)
	if c.custom != nil {
		err = sess.RegisterCustom(c.submits[0].task, c.custom)
		tl.check(err == nil, "%s: RegisterCustom: %v", c.name, err)
	}
	for _, s := range c.submits {
		if err != nil {
			break
		}
		if s.stage < 0 {
			var n int
			n, err = sess.SubmitEverywhere(s.task)
			tl.check(err == nil && n > 0, "%s: SubmitEverywhere(%s) placed %d: %v", c.name, s.task.Name, n, err)
		} else {
			err = sess.Submit(s.task, s.stage)
			tl.check(err == nil, "%s: Submit(%s, %d): %v", c.name, s.task.Name, s.stage, err)
		}
	}
	tr.end(sp)
	if err != nil {
		return out
	}

	sp = tr.begin("run", cellSpan)
	res, err := sess.Run()
	tr.end(sp)
	tl.check(err == nil, "%s: Run: %v", c.name, err)
	if err != nil {
		return out
	}

	sp = tr.begin("collect", cellSpan)
	defer tr.end(sp)
	out.ran = true
	events := sess.Eng.Dispatched()
	out.digest = resultDigest(res, events)
	out.counts.events = events
	out.simTime = res.TrainTime
	for _, dev := range sess.Devices {
		out.workDone += dev.WorkDone()
	}
	// The imperative interface has no stop transition: teardown kills those
	// tasks, so an exit error counts as a failure only for iterative ones.
	killedAtTeardown := c.cfg.Method == freeride.MethodImperative
	for _, tw := range res.Tasks {
		out.harvest += tw.KernelTime
		out.sideWork += tw.KernelTime.Seconds() * tw.Profile.Demand
		tl.check(!tw.Parked && (killedAtTeardown || !tw.Exited || tw.ExitErr == ""),
			"%s: task %s parked=%v exit error %q", c.name, tw.Name, tw.Parked, tw.ExitErr)
	}
	ms := res.ManagerStats
	tl.check(ms.BubbleTimeServed <= ms.BubbleTimeTotal,
		"%s: bubble time served %v > offered %v", c.name, ms.BubbleTimeServed, ms.BubbleTimeTotal)
	tl.check(out.harvest <= time.Duration(out.stages)*out.simTime,
		"%s: harvested %v > %d stages x %v", c.name, out.harvest, out.stages, out.simTime)

	cfg := res.Config // normalized: carries the effective virtual-stage count
	var cycleSpan, closed time.Duration
	if training {
		cycleSpan = res.TrainTime / time.Duration(cfg.Epochs)
		if tNo > 0 {
			cycleSpan = tNo / time.Duration(cfg.Epochs)
			rep := res.CostReport(tNo)
			out.slowdown = float64(res.TrainTime) / float64(tNo)
			out.costS, out.costI, out.hasCost = rep.S, rep.I, true
		}
		closed = cfg.LLM.EpochSpanSched(cfg.Schedule, cfg.Stages, cfg.MicroBatches, cfg.VirtualStages)
	} else {
		st := res.ServingStats
		out.counts.p99 = st.P99
		tl.count(cfg.Serving.Requests, cfg.Serving.Requests-st.Requests,
			"%s: %d of %d requests completed", c.name, st.Requests, cfg.Serving.Requests)
		if cfg.Method == freeride.MethodNone {
			starts, ends := sess.Server.BatchTimes()
			for i := range ends {
				cycleSpan += ends[i] - starts[i]
			}
			if len(ends) > 0 {
				cycleSpan /= time.Duration(len(ends))
			}
			closed = cfg.LLM.ServeBatchSpan(cfg.Stages, cfg.MicroBatches)
		}
	}
	if closed > 0 {
		out.closedForm = ratioAbove1(cycleSpan, closed)
		tl.check(out.closedForm > 0 && out.closedForm <= closedFormBound(cfg.Schedule),
			"%s: cycle span %v vs closed form %v: ratio %.4f above %.2f", c.name, cycleSpan, closed,
			out.closedForm, closedFormBound(cfg.Schedule))
	}

	k := &out.counts
	for _, dev := range sess.Devices {
		k.kernels += dev.KernelsCompleted()
		hits, misses := dev.ShareCacheStats()
		k.shareHits += hits
		k.shareMisses += misses
		k.fusedFolds += dev.FusedFolds()
	}
	for _, tw := range res.Tasks {
		if c.custom != nil {
			k.goroutineSteps += tw.Steps
		} else {
			k.inlineSteps += tw.Steps
		}
		if task, ok := computeTask(cfg, tw.Profile.Name); ok {
			if k.computeSteps == nil {
				k.computeSteps = map[string]uint64{}
			}
			k.computeSteps[task] += tw.Steps
		}
		k.stepEvents += tw.StepEvents
		k.insuffWait += tw.InsuffWait
	}
	k.mgr = ms
	for _, ws := range res.WorkerStats {
		k.starts += ws.Starts
		k.pauses += ws.Pauses
		k.graceKills += ws.GraceKills
	}
	k.requests = res.ServingStats.Requests
	k.batches = res.ServingStats.Batches
	k.violations = res.ServingStats.Violations
	k.injected = res.FaultStats.Total()
	return out
}

// iteration is one pass over every cell of a workload.
type iteration struct {
	cells []cellOut
	wall  time.Duration
}

func runIteration(cells []cell, tr *tracer, tl *tally) iteration {
	it := iteration{cells: make([]cellOut, len(cells))}
	sp := tr.begin("iteration", -1)
	start := time.Now()
	for i, c := range cells {
		it.cells[i] = runCell(c, tr, sp, tl)
	}
	it.wall = time.Since(start)
	tr.end(sp)
	return it
}

// exact are the end-to-end quantities of an iteration that must repeat bit
// for bit on a fixed seed.
type exact struct {
	simSeconds float64
	// eventsPerKernel is engine events dispatched per GPU kernel completed.
	eventsPerKernel float64
	// harvestFactor is 1 + side-task SM-seconds per idle GPU-second, idle
	// being what the main job leaves: stages x simulated seconds minus its
	// own SM-seconds. harvestShare is the side tasks' kernel time over
	// stages x simulated seconds.
	harvestFactor float64
	harvestShare  float64
	slowdown      float64
	// savingsFactor is 1 + the mean cost savings S.
	savingsFactor float64
	closedForm    float64
	meanI         float64 // single-task iterative training cells
	meanS         float64
}

// summarize folds the cells of one iteration into the exact end-to-end
// quantities. Serving cells take their slowdown from the p99 of the
// MethodNone cell on the same trace.
func summarize(cells []cell, outs []cellOut) exact {
	var (
		e                       exact
		gpuSeconds, work, side  float64
		harvest                 float64
		events, kernels         uint64
		slowSum, savingsSum     float64
		slowN, costN, headlineN int
	)
	for i, o := range outs {
		if !o.ran {
			continue
		}
		c := cells[i]
		e.simSeconds += o.simTime.Seconds()
		events += o.counts.events
		kernels += o.counts.kernels
		gpuSeconds += float64(o.stages) * o.simTime.Seconds()
		work += o.workDone
		side += o.sideWork
		harvest += o.harvest.Seconds()
		if len(c.submits) > 0 {
			slow := o.slowdown
			if c.ref >= 0 && outs[c.ref].ran && outs[c.ref].counts.p99 > 0 {
				slow = float64(o.counts.p99) / float64(outs[c.ref].counts.p99)
			}
			slowSum += slow
			slowN++
		}
		if o.hasCost {
			savingsSum += o.costS
			costN++
			if c.cfg.Method == freeride.MethodIterative && len(c.submits) == 1 {
				e.meanI += o.costI
				e.meanS += o.costS
				headlineN++
			}
		}
		e.closedForm = max(e.closedForm, o.closedForm)
	}
	e.eventsPerKernel = ratio(float64(events), float64(kernels))
	e.harvestFactor = 1 + ratio(side, gpuSeconds-(work-side))
	e.harvestShare = ratio(harvest, gpuSeconds)
	e.slowdown, e.savingsFactor = 1, 1
	if slowN > 0 {
		e.slowdown = slowSum / float64(slowN)
	}
	if costN > 0 {
		e.savingsFactor = 1 + savingsSum/float64(costN)
	}
	if headlineN > 0 {
		e.meanI /= float64(headlineN)
		e.meanS /= float64(headlineN)
	}
	return e
}

// iterationDigest folds the cell digests in cell order.
func iterationDigest(outs []cellOut) uint64 {
	h := fnv.New64a()
	for _, o := range outs {
		fmt.Fprintf(h, "%x;", o.digest)
	}
	return h.Sum64()
}
