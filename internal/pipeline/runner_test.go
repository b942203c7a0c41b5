package pipeline

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
	"unsafe"

	"freeride/internal/model"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// TestChunkLabelsMatchSprintf holds the packed op table to what it replaced,
// for every op of every schedule kind: each record's kernel name to the
// fmt.Sprintf form, its duration to Durations[kind], and its wait and post
// slots to the scoreboard indices derived from the plan (checkSteps).
func TestChunkLabelsMatchSprintf(t *testing.T) {
	for _, kind := range []ScheduleKind{Schedule1F1B, ScheduleGPipe, ScheduleInterleaved, ScheduleZeroBubble} {
		v := 1
		if kind == ScheduleInterleaved {
			v = 2
		}
		plan, err := BuildPlan(kind, 12, 128, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSteps(plan); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

// checkSteps builds plan's op tables under the training names and under the
// serving label "infer", and reports the first record that disagrees with
// the plan: a kernel name other than the fmt.Sprintf form, a duration other
// than Durations[kind], a wait slot other than the one Deps[v][i] names (0
// without a dependency), or a post slot other than the one the op stamps
// (0 for W and optimizer ops). The slots are spelt out here independently of
// the builder: forward board first, then the activation-gradient board, nv ×
// mbs slots each, stored as index+1.
func checkSteps(plan *Plan) error {
	nv, mbs := plan.NumVirtual(), plan.MicroBatches
	slot := func(on OpKind, chunk, mb int) int32 {
		board := 0
		if on != OpForward {
			board = 1
		}
		return int32((board*nv+chunk)*mbs+mb) + 1
	}
	var durs [NumOpKinds]time.Duration
	for k := range durs {
		durs[k] = time.Duration(k+1) * time.Millisecond
	}
	for _, label := range []string{"", "infer"} {
		r := &Runner{cfg: RunnerConfig{Durations: durs, Label: label}}
		chunks := make([]chunk, nv)
		bindSteps(chunks, plan, label)
		for v, ops := range plan.Chunks {
			c := &chunks[v]
			c.r = r
			if len(c.steps) != len(ops) {
				return fmt.Errorf("chunk %d: %d records for %d ops", v, len(c.steps), len(ops))
			}
			phys := v % plan.Stages
			for i, op := range ops {
				c.i = i
				c.bindSpec()
				want := fmt.Sprintf("s%d-%v-%d", phys, op.Kind, op.MB)
				if label != "" {
					want = fmt.Sprintf("s%d-%s-%d", phys, label, op.MB)
				}
				if c.spec.Name != want {
					return fmt.Errorf("chunk %d op %d: label %q, want %q", v, i, c.spec.Name, want)
				}
				if c.spec.Duration != durs[op.Kind] {
					return fmt.Errorf("chunk %d op %d (%v): duration %v, want %v", v, i, op, c.spec.Duration, durs[op.Kind])
				}
				var wait, post int32
				if d := plan.Deps[v][i]; d.Chunk >= 0 {
					wait = slot(d.On, d.Chunk, d.MB)
				}
				if op.Kind != OpBackwardWeight && op.Kind != OpOptimize {
					post = slot(op.Kind, v, op.MB)
				}
				if st := c.steps[i]; st.wait != wait || st.post != post {
					return fmt.Errorf("chunk %d op %d (%v): waits on %d and stamps %d, want %d and %d",
						v, i, op, st.wait, st.post, wait, post)
				}
			}
		}
	}
	return nil
}

// TestStepTablesAllocateTwice pins the table build at two allocations —
// the slab of every chunk's records and the string of every kernel name —
// whatever the chunk count, for every schedule kind, training and serving.
func TestStepTablesAllocateTwice(t *testing.T) {
	if size := unsafe.Sizeof(step{}); size > 16 {
		t.Fatalf("a step record takes %d bytes, want at most 16 (four to a cache line)", size)
	}
	for _, kind := range []ScheduleKind{Schedule1F1B, ScheduleGPipe, ScheduleInterleaved, ScheduleZeroBubble} {
		for _, s := range []int{16, 64} {
			v := 1
			if kind == ScheduleInterleaved {
				v = 2
			}
			plan, err := BuildPlan(kind, s, 2*s, v)
			if err != nil {
				t.Fatal(err)
			}
			chunks := make([]chunk, plan.NumVirtual())
			for _, label := range []string{"", "infer"} {
				if allocs := testing.AllocsPerRun(10, func() { bindSteps(chunks, plan, label) }); allocs != 2 {
					t.Errorf("%v S=%d label %q: building %d chunks' tables allocates %.0f objects, want 2",
						kind, s, label, len(chunks), allocs)
				}
			}
		}
	}
}

// quietRig is newRig on trace-less devices: nothing but the stage machines
// and the engine's pooled timers runs per op. full puts the stages on
// FullRebalance devices, where a transfer is a sleep before the launch.
func quietRig(t testing.TB, cfg Config, full bool) *rig {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	devices := make([]*simgpu.Device, cfg.Stages)
	for i := range devices {
		devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{
			Name: fmt.Sprintf("gpu%d", i), MemBytes: 1 << 40, NoTraces: true, FullRebalance: full,
		})
	}
	tr, err := New(eng, procs, devices, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &rig{eng: eng, procs: procs, devices: devices, trainer: tr}
}

// warmEngine grows every calendar-wheel bucket and the detached-timer
// free-list of a fresh engine past what a 16-stage run needs: a burst of
// no-op events in every half-millisecond of the wheel horizon, fired during
// the first simulated 300ms. The wheel's amortised bucket growth is the
// engine's own (it decays over tens of epochs as deadlines drift across
// slots) and would otherwise mask what the alloc pins measure.
func warmEngine(eng *simtime.Virtual) {
	for d := time.Duration(0); d < 300*time.Millisecond; d += 500 * time.Microsecond {
		for i := 0; i < 48; i++ {
			eng.ScheduleDetached(d, "warm", func() {})
		}
	}
}

// runEpochFn returns a function that steps r's engine through one more
// epoch. r's trainer must not have started yet.
func runEpochFn(t testing.TB, r *rig) func() {
	t.Helper()
	epochs := 0
	r.trainer.OnCycleEnd(func(int, time.Duration) { epochs++ })
	if err := r.trainer.Start(); err != nil {
		t.Fatal(err)
	}
	return func() {
		for target := epochs + 1; epochs < target; {
			if !r.eng.Step() {
				t.Fatalf("engine ran dry after %d epochs", epochs)
			}
		}
	}
}

// TestSteadyStateEpochAllocFree pins the plan runner: once the kernel pools,
// timer free-list and cycle-waiter lists are warm, a whole epoch — every
// dependency wait and wake, transfer, kernel and the epoch barrier —
// allocates nothing, whether the transfer is a host lead or (on a
// FullRebalance device) a sleep before the launch, and whether the chunk owns
// its stream or shares it (interleaved).
func TestSteadyStateEpochAllocFree(t *testing.T) {
	for _, kind := range []ScheduleKind{Schedule1F1B, ScheduleZeroBubble, ScheduleInterleaved} {
		for _, full := range []bool{false, true} {
			r := quietRig(t, Config{
				Model: model.NanoGPT3B, Stages: 16, MicroBatches: 32, Epochs: 8, Schedule: kind,
			}, full)
			warmEngine(r.eng)
			runEpoch := runEpochFn(t, r)
			runEpoch()
			runEpoch()
			if allocs := testing.AllocsPerRun(4, runEpoch); allocs != 0 {
				t.Errorf("%v (full rebalance %v): a steady-state epoch allocates %.0f objects, want 0", kind, full, allocs)
			}
			if err := r.trainer.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSteadyStateEpochEvents pins what a steady epoch costs the engine at
// S=4, M=8. A 1F1B epoch runs 68 kernels in 68 events: every transfer is its
// kernel's host lead and the barrier releases the next epoch inside its own
// callback, at no event. An interleaved epoch (V=2) runs 136 kernels in 136
// events: its 112 dependency-carrying ops lead onto the stage's shared
// stream, and a lead that finds the stream busy waits in its FIFO for the
// completion that frees it, arming nothing of its own. With a zero-length
// transfer the 1F1B epoch keeps the sleep — 48 dependency-carrying ops, 116
// events — so the instant's other callbacks still run ahead of each launch.
func TestSteadyStateEpochEvents(t *testing.T) {
	free := model.NanoGPT3B
	free.CommLatency = 0
	for _, c := range []struct {
		name            string
		cfg             Config
		kernels, events uint64
	}{
		{"1f1b", Config{Model: model.NanoGPT3B, Schedule: Schedule1F1B}, 68, 68},
		{"interleaved", Config{Model: model.NanoGPT3B, Schedule: ScheduleInterleaved}, 136, 136},
		{"1f1b-zero-comm", Config{Model: free, Schedule: Schedule1F1B}, 68, 116},
	} {
		c.cfg.Stages, c.cfg.MicroBatches, c.cfg.Epochs = 4, 8, 6
		r := quietRig(t, c.cfg, false)
		runEpoch := runEpochFn(t, r)
		runEpoch()
		runEpoch()
		kernels := func() (n uint64) {
			for _, d := range r.devices {
				n += d.KernelsCompleted()
			}
			return n
		}
		k0, e0 := kernels(), r.eng.Dispatched()
		runEpoch()
		if k, e := kernels()-k0, r.eng.Dispatched()-e0; k != c.kernels || e != c.events {
			t.Errorf("%s: a steady epoch runs %d kernels in %d engine events, want %d in %d",
				c.name, k, e, c.kernels, c.events)
		}
	}
}

// TestFailedStartReleasesDevices: an OOM at stage s must not leave stages
// 0…s-1 holding their clients and memory.
func TestFailedStartReleasesDevices(t *testing.T) {
	cfg := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, Epochs: 1}
	r := quietRig(t, cfg, false)
	// Give the last stage a device one byte too small.
	need := cfg.Model.StageMemUsedSched(Schedule1F1B, 3, 4, 4, 1)
	r.devices[3] = simgpu.NewDevice(r.eng, simgpu.DeviceConfig{Name: "small", MemBytes: need - 1})
	tr, err := New(r.eng, r.procs, r.devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err == nil {
		t.Fatal("Start succeeded on an undersized device")
	}
	for s, d := range r.devices {
		if d.MemUsed() != 0 {
			t.Errorf("stage %d: %d bytes still allocated after a failed Start", s, d.MemUsed())
		}
		if _, err := d.NewClient(simgpu.ClientConfig{Name: fmt.Sprintf("train-s%d", s)}); err != nil {
			t.Errorf("stage %d: training client still registered: %v", s, err)
		}
	}
}

// TestRunnerBesideGoroutineShell drives the unguarded scoreboard the way a
// custom-task session does: a goroutine-shell process keeps taking the
// dispatcher over and handing it back while the stage machines run, a
// blocking side task on stage 1's device. The shell is a coroutine of the
// dispatcher, so the engine keeps its one owner. Under -race this is the
// check of the runner's single-owner claim; the op order every stage
// executes must match the same session alone.
func TestRunnerBesideGoroutineShell(t *testing.T) {
	base := Config{Model: model.NanoGPT3B, Stages: 4, MicroBatches: 8, Epochs: 3, Schedule: ScheduleInterleaved}
	plain := newRig(t, base)
	plain.run(t)

	r := newRig(t, base)
	c, err := r.devices[1].NewClient(simgpu.ClientConfig{Name: "side"})
	if err != nil {
		t.Fatal(err)
	}
	r.procs.Spawn("side-task", func(p *simproc.Process) error {
		spec := &simgpu.KernelSpec{Name: "side", Duration: 3 * time.Millisecond, Demand: 0.2, Weight: 0.2}
		for !r.trainer.Done().IsSet() {
			if err := c.Exec(p, spec); err != nil {
				return err
			}
			p.Sleep(time.Millisecond)
		}
		return nil
	})
	r.run(t)
	// The side task contends for a device, so times move; the op order every
	// stage executes must not.
	for s := 0; s < base.Stages; s++ {
		a, b := plain.trainer.OpLog(s), r.trainer.OpLog(s)
		if len(a) != len(b) {
			t.Fatalf("stage %d: %d ops vs %d", s, len(a), len(b))
		}
		for i := range a {
			if a[i].Op != b[i].Op {
				t.Fatalf("stage %d op %d: %v vs %v", s, i, a[i].Op, b[i].Op)
			}
		}
	}
}

// leadRun is what one stage-machine run left behind: every chunk's op spans,
// every device's kernel count, the engine events it dispatched and how many
// ops waited on a cross-chunk dependency.
type leadRun struct {
	spans   [][]OpSpan
	kernels []uint64
	events  uint64
	depOps  uint64
}

// runPlan drives a plan for cycles cycles straight through the Runner, each
// cycle released inside the previous one's barrier; under VirtualPerStage > 1
// a stage's chunks share its client. full puts every stage on a
// FullRebalance device (ExecLeadThen's two-event fallback); side adds an MPS
// side-task client to every device, stepping until the pipeline is done.
func runPlan(t *testing.T, plan *Plan, durs [NumOpKinds]time.Duration, comm time.Duration, cycles int, full, side bool) leadRun {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	devices := make([]*simgpu.Device, plan.Stages)
	for i := range devices {
		devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{
			Name: fmt.Sprintf("gpu%d", i), MemBytes: 1 << 40,
			ResidencyTax: simgpu.DefaultResidencyTax, FullRebalance: full,
		})
	}
	clients, err := NewStageClients(devices, "s", func(int) int64 { return 1 << 30 })
	if err != nil {
		t.Fatal(err)
	}
	out := leadRun{spans: make([][]OpSpan, plan.NumVirtual())}
	for _, deps := range plan.Deps {
		for _, d := range deps {
			if d.Chunk >= 0 {
				out.depOps += uint64(cycles)
			}
		}
	}
	var run *Runner
	done := false
	run = NewRunner(procs, clients, plan, RunnerConfig{
		Cycles: cycles, Durations: durs, Comm: comm, ProcName: "pipe-v",
		CycleDone: func(c int) {
			if done = c+1 == cycles; !done {
				run.Release()
			}
		},
		Failed: func(s int, op Op, err error) { t.Errorf("stage %d %v: %v", s, op, err) },
		Record: func(_, v int, sp OpSpan) { out.spans[v] = append(out.spans[v], sp) },
	})
	if side {
		for i, dev := range devices {
			c, err := dev.NewClient(simgpu.ClientConfig{Name: "side"})
			if err != nil {
				t.Fatal(err)
			}
			// Host phases and kernels on a 0.5 ms grid, so side launches
			// and completions land on the stages' transfer ends.
			spec := &simgpu.KernelSpec{Name: "side", Duration: time.Duration(1+i%3) * time.Millisecond, Demand: 0.6, Weight: 1}
			procs.SpawnInline(fmt.Sprintf("side%d", i), func(p *simproc.Process) {
				var step func(any)
				launch := func(any) { c.ExecThen(p, spec, step) }
				step = func(any) {
					if done {
						p.Exit(nil)
						return
					}
					p.SleepThen(500*time.Microsecond, launch)
				}
				step(nil)
			})
		}
	}
	run.Release()
	eng.Drain(0)
	if !done {
		t.Fatal("the run did not retire its last cycle")
	}
	for _, d := range devices {
		out.kernels = append(out.kernels, d.KernelsCompleted())
	}
	out.events = eng.Dispatched()
	return out
}

// kernelTime is how long a kernel of duration d runs alone on a reference
// device: the device's ceil(work/alloc) at full allocation.
func kernelTime(d time.Duration) time.Duration {
	return time.Duration(math.Ceil(d.Seconds() * 1e9))
}

// checkTransferStarts is the two-event form's timing, derived from the plan.
// An op is launched when its chunk's previous op retires (the cycle's release
// for the first), and an op with a cross-chunk dependency a transfer after
// the later of that and its producer's retirement; the span's Start is that
// launch. Its kernel starts at the later of the launch and the moment its
// stream frees — the retirement of the kernel before it on the stage, which
// the stage's chunks share under interleaving — so alone (exact) it retires
// its kernel's run time later, and beside a side task no earlier.
func checkTransferStarts(t *testing.T, desc string, plan *Plan, spans [][]OpSpan, durs [NumOpKinds]time.Duration, comm time.Duration, exact bool) {
	t.Helper()
	// at[v][slot] is the index of the op a dependency on (kind, mb) names.
	at := make([]map[[2]int]int, len(plan.Chunks))
	key := func(k OpKind, mb int) [2]int {
		if k != OpForward {
			k = OpBackward
		}
		return [2]int{int(k), mb}
	}
	for v, ops := range plan.Chunks {
		at[v] = make(map[[2]int]int)
		for i, op := range ops {
			if op.Kind != OpBackwardWeight && op.Kind != OpOptimize {
				at[v][key(op.Kind, op.MB)] = i
			}
		}
	}
	release := time.Duration(0)
	for c := 0; c*len(plan.Chunks[0]) < len(spans[0]); c++ {
		var retire time.Duration
		for v, ops := range plan.Chunks {
			prev := release
			for i, dep := range plan.Deps[v] {
				sp := spans[v][c*len(ops)+i]
				want := prev
				if dep.Chunk >= 0 {
					src := spans[dep.Chunk][c*len(plan.Chunks[dep.Chunk])+at[dep.Chunk][key(dep.On, dep.MB)]]
					want = max(prev, src.End) + comm
				}
				if sp.Start != want {
					t.Fatalf("%s: cycle %d chunk %d op %d (%v) launches at %v, want %v", desc, c, v, i, sp.Op, sp.Start, want)
				}
				prev = sp.End
			}
			retire = max(retire, prev)
		}
		release = retire
	}
	for s := 0; s < plan.Stages; s++ {
		var stream []OpSpan
		for v := s; v < len(spans); v += plan.Stages {
			stream = append(stream, spans[v]...)
		}
		slices.SortFunc(stream, func(a, b OpSpan) int { return cmp.Compare(a.End, b.End) })
		free := time.Duration(0)
		for _, sp := range stream {
			want := max(sp.Start, free) + kernelTime(durs[sp.Op.Kind])
			if sp.End < want || (exact && sp.End != want) {
				t.Fatalf("%s: stage %d op %v launched at %v retires at %v, want %v (stream free at %v)",
					desc, s, sp.Op, sp.Start, sp.End, want, free)
			}
			free = sp.End
		}
	}
}

// TestCommLeadMatchesTwoEventForm pins the stage transfer as the kernel's
// host lead: on a lead-capable device every schedule — training with V=1,
// interleaved with V ∈ {2, 3} on shared stage streams, and the serving plan,
// alone and beside an MPS side task — runs exactly the spans and kernels of
// the two-event form a FullRebalance device falls back to, alone in one
// engine event fewer per dependency-carrying op, and those spans are the
// ones the two-event form's timing rule derives.
func TestCommLeadMatchesTwoEventForm(t *testing.T) {
	m := model.NanoGPT3B
	var train, serving [NumOpKinds]time.Duration
	train[OpForward], train[OpBackward], train[OpOptimize] = m.FPPerMB, m.BPPerMB, m.OptStep
	train[OpBackwardInput] = m.BPPerMB / 2
	train[OpBackwardWeight] = m.BPPerMB - m.BPPerMB/2
	serving[OpForward] = m.FPPerMB
	for _, s := range []int{2, 4, 8} {
		for _, mbs := range []int{s, 2 * s} {
			type planCase struct {
				name string
				plan *Plan
				durs [NumOpKinds]time.Duration
			}
			var cases []planCase
			for _, kind := range []ScheduleKind{Schedule1F1B, ScheduleGPipe, ScheduleZeroBubble} {
				plan, err := BuildPlan(kind, s, mbs, 1)
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, planCase{kind.String(), plan, train})
			}
			for _, v := range []int{2, 3} {
				plan, err := BuildPlan(ScheduleInterleaved, s, mbs, v)
				if err != nil {
					t.Fatal(err)
				}
				// Durations ÷V per chunk, as the trainer runs them.
				var durs [NumOpKinds]time.Duration
				for k, d := range train {
					durs[k] = d / time.Duration(v)
				}
				cases = append(cases, planCase{fmt.Sprintf("interleaved-V%d", v), plan, durs})
			}
			plan, err := BuildServingPlan(s, mbs)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, planCase{"serving", plan, serving})
			for _, pc := range cases {
				for _, side := range []bool{false, true} {
					desc := fmt.Sprintf("%s/S%d-M%d/side=%v", pc.name, s, mbs, side)
					lead := runPlan(t, pc.plan, pc.durs, m.CommLatency, 3, false, side)
					two := runPlan(t, pc.plan, pc.durs, m.CommLatency, 3, true, side)
					for v := range lead.spans {
						if !slices.Equal(lead.spans[v], two.spans[v]) {
							t.Fatalf("%s: chunk %d spans differ between the lead and two-event forms", desc, v)
						}
					}
					if !slices.Equal(lead.kernels, two.kernels) {
						t.Fatalf("%s: kernels completed %v, two-event form %v", desc, lead.kernels, two.kernels)
					}
					// Alone, each transfer's wake event is gone. Beside a side
					// task, a side kernel's completion can be the first device
					// transition after a lead's wake: it matures the lead, finds
					// itself pushed later and re-arms — one premature fire in
					// place of the wake. The lead form still saves events.
					saved := two.events - lead.events
					if lead.events >= two.events || saved > lead.depOps || (!side && saved != lead.depOps) {
						t.Fatalf("%s: %d engine events, two-event form %d, %d dependency-carrying ops",
							desc, lead.events, two.events, lead.depOps)
					}
					checkTransferStarts(t, desc, pc.plan, lead.spans, pc.durs, m.CommLatency, !side)
				}
			}
		}
	}
}
