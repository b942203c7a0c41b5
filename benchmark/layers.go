package main

import (
	"fmt"
	"os"
	"time"

	"freeride"
)

// layerInputs is what a traced run hands to the per-layer report.
type layerInputs struct {
	cells    []cell
	counts   counts // one iteration, summed over the cells
	exact    exact
	generate time.Duration
	// coldSelf are the span self times of the cold iteration; perIter those
	// of every traced warm iteration.
	coldSelf map[string]time.Duration
	perIter  []map[string]time.Duration
	// untracedWall and tracedWall are the median warm iteration times with
	// and without span recording, from alternating iterations of one run.
	untracedWall, tracedWall float64
	// hostSlowdown is the median over the warm iterations of how much slower
	// than nominal the reference kernel ran beside them.
	hostSlowdown float64
}

// spanMedian is the median over the traced iterations of one span name's
// self time, in seconds.
func spanMedian(perIter []map[string]time.Duration, name string) float64 {
	xs := make([]float64, len(perIter))
	for i, m := range perIter {
		xs[i] = m[name].Seconds()
	}
	return median(xs)
}

// layerMetrics fills v with every per-layer metric: span self times,
// exact counts, isolated driver costs, and the share model built from them.
func layerMetrics(v map[string]float64, in layerInputs) {
	k := in.counts

	// Spans.
	v["freeride.baseline_s"] = in.coldSelf["baseline"].Seconds()
	v["freeride.new_session_cold_s"] = in.coldSelf["new_session"].Seconds()
	v["freeride.new_session_s"] = spanMedian(in.perIter, "new_session")
	v["freeride.submit_s"] = spanMedian(in.perIter, "submit")
	run := spanMedian(in.perIter, "run")
	v["freeride.run_s"] = run
	v["freeride.collect_s"] = spanMedian(in.perIter, "collect")
	v["bench.generate_s"] = in.generate.Seconds()
	v["bench.trace_overhead_pct"] = 100 * ratio(in.tracedWall-in.untracedWall, in.untracedWall)
	v["bench.host_slowdown"] = in.hostSlowdown

	// Counts, per iteration.
	v["simtime.events"] = float64(k.events)
	v["simtime.events_per_s"] = ratio(float64(k.events), run)
	v["simtime.ns_per_event"] = ratio(run*1e9, float64(k.events))
	v["simgpu.kernels"] = float64(k.kernels)
	v["simgpu.share_cache_hit_ratio"] = ratio(float64(k.shareHits), float64(k.shareHits+k.shareMisses))
	v["simgpu.fused_folds"] = float64(k.fusedFolds)
	steps := k.inlineSteps + k.goroutineSteps
	v["sidetask.steps"] = float64(steps)
	v["sidetask.step_events"] = float64(k.stepEvents)
	v["sidetask.events_per_step"] = ratio(float64(k.stepEvents), float64(steps))
	v["sidetask.insuff_wait_s"] = k.insuffWait.Seconds()
	v["core.rpcs"] = float64(k.mgr.RPCs)
	v["core.pings"] = float64(k.mgr.Pings)
	v["core.bubbles_added"] = float64(k.mgr.BubblesAdded)
	v["core.bubbles_served"] = float64(k.mgr.BubblesServed)
	v["core.bubbles_expired"] = float64(k.mgr.BubblesExpired)
	v["core.bubble_time_served_ratio"] = ratio(k.mgr.BubbleTimeServed.Seconds(), k.mgr.BubbleTimeTotal.Seconds())
	v["core.starts"] = float64(k.starts)
	v["core.pauses"] = float64(k.pauses)
	v["core.grace_kills"] = float64(k.graceKills)
	v["core.slo_deferred"] = float64(k.mgr.SLODeferred)
	v["core.replans"] = float64(k.mgr.Replans)
	v["core.replacements"] = float64(k.mgr.Replacements)
	v["core.lost_work_s"] = k.mgr.LostWork.Seconds()
	v["core.harvest_share"] = in.exact.harvestShare
	var ops uint64
	for _, c := range in.cells {
		if c.cfg.Serving != nil {
			continue // serving batches run on serve's stage machines
		}
		n, err := opsPerCycle(c.cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: pipeline.ops: %s: %v\n", c.name, err)
			continue
		}
		ops += n * uint64(c.cfg.Epochs)
	}
	v["pipeline.ops"] = float64(ops)
	v["serve.requests"] = float64(k.requests)
	v["serve.batches"] = float64(k.batches)
	v["serve.p99_s"] = k.p99.Seconds()
	v["serve.violation_ratio"] = ratio(float64(k.violations), float64(k.requests))
	v["simfault.injected"] = float64(k.injected)
	v["cost.I_pct"] = 100 * in.exact.meanI
	v["cost.S_pct"] = 100 * in.exact.meanS

	// Drivers.
	cost, errs := drivers(v)
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "benchmark: layer driver: %v\n", err)
	}

	// Shares: count x isolated cost, each layer net of the layers below it,
	// over the traced iteration time. An estimate, not a measurement: what
	// the model does not explain is reported as share.unattributed.
	disp := cost["dispatch"].ns
	execLead := cost["exec_lead"].net(disp)
	exec := cost["exec"].net(disp)
	goNet := cost["go"].net(disp)
	leadKernels := float64(k.kernels) - float64(k.goroutineSteps)
	ns := map[string]float64{
		"simtime": float64(k.events) * disp,
		"simgpu":  max(0, leadKernels)*execLead + float64(k.goroutineSteps)*exec,
		"sidetask": float64(k.inlineSteps)*max(0, cost["step_inline"].net(disp)-execLead) +
			float64(k.goroutineSteps)*max(0, cost["step_goroutine"].net(disp)-exec),
		"freerpc": float64(k.mgr.RPCs+k.mgr.Pings)*goNet +
			float64(k.mgr.BubblesAdded)*cost["notify"].net(disp),
		"core":     float64(k.mgr.BubblesServed) * max(0, cost["bubble_cycle"].net(disp)-cost["bubble_cycle"].rpcs*goNet),
		"pipeline": float64(ops) * max(0, cost["pipeline_op"].net(disp)-execLead),
		"serve":    float64(k.requests) * max(0, cost["serve_request"].net(disp)-serveKernelsPerRequest*execLead),
	}
	for task, n := range k.computeSteps {
		ns["compute"] += float64(n) * max(0, cost["compute/"+task].ns-cost["step_inline"].ns)
	}
	total := in.tracedWall
	sum := 0.0
	for _, layer := range []string{"simtime", "simgpu", "sidetask", "freerpc", "core", "pipeline", "serve", "compute"} {
		s := ratio(ns[layer]/1e9, total)
		v["share."+layer] = s
		sum += s
	}
	assembly := ratio(spanMedian(in.perIter, "baseline")+v["freeride.new_session_s"]+
		v["freeride.submit_s"]+v["freeride.collect_s"], total)
	v["share.assembly"] = assembly
	v["share.unattributed"] = 1 - sum - assembly
}

// serveKernelsPerRequest is the kernel count per request of the serve
// driver's rig: 4 stages x 4 micro-batches per batch of 8 requests.
const serveKernelsPerRequest = 2

// computeTask maps a WorkSmall cell's task to the driver that times its
// host computation; resnet50 shares resnet18's trainer.
func computeTask(cfg freeride.Config, profile string) (string, bool) {
	if cfg.WorkScale == 0 {
		return "", false
	}
	switch profile {
	case "resnet18", "resnet50":
		return "resnet18", true
	case "vgg19", "pagerank", "graphsgd", "image":
		return profile, true
	}
	return "", false
}
