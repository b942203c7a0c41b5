package simgpu

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// runLeadArm replays one fixed workload — a serial host-lead step loop plus
// a background client launching kernels and moving memory at scheduled
// instants — and returns the loop's completion timestamps. fused selects
// ExecLeadThen (one event per step); the control arm dispatches the same
// steps as the classic sleep(lead) + ExecThen pair. The stimulus depends
// only on the arm's call shape, never on its timing feedback.
func runLeadArm(t *testing.T, fused bool, n int) ([]time.Duration, *Device) {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := NewDevice(eng, DeviceConfig{
		Name:         "gpu",
		ResidencyTax: DefaultResidencyTax,
		MemBytes:     1 << 30,
	})
	main, err := dev.NewClient(ClientConfig{Name: "main"})
	if err != nil {
		t.Fatal(err)
	}
	bg, err := dev.NewClient(ClientConfig{Name: "bg"})
	if err != nil {
		t.Fatal(err)
	}
	spec := &KernelSpec{Name: "step", Duration: 4 * time.Millisecond, Demand: 0.7, Weight: 0.5}
	const lead = 3 * time.Millisecond
	var times []time.Duration
	procs.SpawnInline("loop", func(p *simproc.Process) {
		var launch func()
		var k func(any)
		count := 0
		launch = func() {
			if fused {
				main.ExecLeadThen(p, spec, lead, k)
			} else {
				p.SleepThen(lead, func(any) { main.ExecThen(p, spec, k) })
			}
		}
		k = func(res any) {
			if res != nil {
				t.Errorf("step %d failed: %v", count, res)
				p.Exit(res.(error))
				return
			}
			times = append(times, eng.Now())
			count++
			if count >= n {
				p.Exit(nil)
				return
			}
			launch()
		}
		launch()
	})
	// Background perturbation: overlapping kernels force mid-lead
	// rebalances (hypothesis refreshes), memory traffic toggles the
	// ≥2-resident tax predicate while leads are pending.
	for i := 0; i < n; i++ {
		i := i
		eng.Schedule(time.Duration(2+5*i)*time.Millisecond, "bg-kernel", func() {
			_ = bg.Launch(&KernelSpec{
				Name:     "bg",
				Duration: time.Duration(1+i%3) * time.Millisecond,
				Demand:   0.5,
				Weight:   1,
			}, func(error) {})
		})
	}
	eng.Schedule(5*time.Millisecond, "bg-mem", func() { _ = bg.AllocMem(1 << 20) })
	eng.Schedule(29*time.Millisecond, "bg-mem-free", func() { bg.FreeMem(1 << 20) })
	eng.RunUntil(2 * time.Second)
	return times, dev
}

// TestExecLeadThenMatchesSleepExec is the simgpu-level fusion differential:
// under identical background stimulus the fused host-lead launch must
// complete every step at exactly the instant of the unfused sleep+launch
// pair.
func TestExecLeadThenMatchesSleepExec(t *testing.T) {
	const steps = 12
	fusedTimes, fdev := runLeadArm(t, true, steps)
	plainTimes, pdev := runLeadArm(t, false, steps)
	if len(fusedTimes) != steps {
		t.Fatalf("fused arm completed %d steps, want %d", len(fusedTimes), steps)
	}
	if !reflect.DeepEqual(fusedTimes, plainTimes) {
		t.Errorf("completion instants diverge:\nfused   %v\nunfused %v", fusedTimes, plainTimes)
	}
	if a, b := fdev.WorkDone(), pdev.WorkDone(); a != b {
		t.Errorf("work done diverges: fused %v, unfused %v", a, b)
	}
	if a, b := fdev.KernelsCompleted(), pdev.KernelsCompleted(); a != b {
		t.Errorf("kernels completed diverge: fused %d, unfused %d", a, b)
	}
}

// newLeadRig is a single-client device for the hold/release boundary tests.
func newLeadRig(t *testing.T) (*simtime.Virtual, *simproc.Runtime, *Device, *Client) {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true})
	c, err := dev.NewClient(ClientConfig{Name: "task"})
	if err != nil {
		t.Fatal(err)
	}
	return eng, procs, dev, c
}

// TestHoldLeadFreezesHostPhase pins the Stop/Pause boundary for a lead still
// in its host phase: HoldLead freezes the remaining lead, the kernel never
// runs while held, and ReleaseLead restarts the kernel clock at the release
// instant — exactly the deferred sleep-wake a stopped unfused process would
// observe.
func TestHoldLeadFreezesHostPhase(t *testing.T) {
	eng, procs, _, c := newLeadRig(t)
	spec := &KernelSpec{Name: "k", Duration: 5 * time.Millisecond, Demand: 1, Weight: 1}
	doneAt := time.Duration(-1)
	procs.SpawnInline("t", func(p *simproc.Process) {
		c.ExecLeadThen(p, spec, 10*time.Millisecond, func(res any) {
			if res != nil {
				t.Errorf("kernel failed: %v", res)
			}
			doneAt = eng.Now()
			p.Exit(nil)
		})
	})
	eng.RunUntil(4 * time.Millisecond) // inside the host phase [0, 10ms)
	c.HoldLead()
	eng.RunUntil(20 * time.Millisecond)
	if doneAt != -1 {
		t.Fatalf("kernel completed at %v while the lead was held", doneAt)
	}
	c.ReleaseLead() // at 20ms: leadUntil pushes to the release instant
	eng.RunUntil(40 * time.Millisecond)
	if want := 25 * time.Millisecond; doneAt != want {
		t.Fatalf("kernel completed at %v, want %v (release + duration)", doneAt, want)
	}
}

// TestHoldLeadMaturesInFlightKernel pins the other side of the boundary: a
// lead whose host phase already elapsed is an in-flight asynchronous kernel;
// HoldLead matures it instead of freezing it and it completes on time, as
// the paper's asynchronous kernels run through a SIGTSTP (§5).
func TestHoldLeadMaturesInFlightKernel(t *testing.T) {
	eng, procs, _, c := newLeadRig(t)
	spec := &KernelSpec{Name: "k", Duration: 5 * time.Millisecond, Demand: 1, Weight: 1}
	doneAt := time.Duration(-1)
	procs.SpawnInline("t", func(p *simproc.Process) {
		c.ExecLeadThen(p, spec, 3*time.Millisecond, func(res any) {
			doneAt = eng.Now()
			p.Exit(nil)
		})
	})
	eng.RunUntil(4 * time.Millisecond) // past leadUntil = 3ms
	c.HoldLead()                       // matures the due lead; no freeze
	eng.RunUntil(20 * time.Millisecond)
	if want := 8 * time.Millisecond; doneAt != want {
		t.Fatalf("kernel completed at %v, want %v (hold must not stall an in-flight kernel)", doneAt, want)
	}
}

// TestExecLeadThenFaultDelivery pins the fault boundary: an armed kernel
// fault is consumed at launch but delivered when the host phase ends — the
// instant the unfused arm's launch would consume and deliver it. Runs on
// every device flavour (the non-lead fallback consumes at the same instant).
func TestExecLeadThenFaultDelivery(t *testing.T) {
	eng, procs, dev, c := newLeadRig(t)
	spec := &KernelSpec{Name: "k", Duration: 5 * time.Millisecond, Demand: 1, Weight: 1}
	dev.InjectKernelFault("")
	errAt := time.Duration(-1)
	var gotErr error
	procs.SpawnInline("t", func(p *simproc.Process) {
		c.ExecLeadThen(p, spec, 7*time.Millisecond, func(res any) {
			errAt = eng.Now()
			gotErr, _ = res.(error)
			p.Exit(nil)
		})
	})
	eng.RunUntil(50 * time.Millisecond)
	if want := 7 * time.Millisecond; errAt != want {
		t.Fatalf("fault delivered at %v, want %v (the host-phase boundary)", errAt, want)
	}
	if gotErr == nil {
		t.Fatal("injected fault not delivered as an error")
	}
	if got := dev.InjectedKernelFaults(); got != 1 {
		t.Fatalf("InjectedKernelFaults = %d, want 1", got)
	}
}

// TestFaultArmedDuringLead pins the reference semantics of a fault armed
// while a host lead is pending: the first matching launch at or after the
// arming instant fails, and a lead launches at its leadUntil (a held lead: at
// its release). The lead is 10ms of host phase, then a 5ms kernel.
func TestFaultArmedDuringLead(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name     string
		armAt    time.Duration
		other    time.Duration // another client's plain launch (0: none)
		hold     bool          // HoldLead at 6ms, ReleaseLead at 20ms
		doneAt   time.Duration
		failed   bool
		otherErr bool
	}{
		{name: "inside the host phase", armAt: 4 * ms, doneAt: 10 * ms, failed: true},
		{name: "another launch comes first", armAt: 4 * ms, other: 6 * ms, doneAt: 15 * ms, otherErr: true},
		{name: "another launch comes later", armAt: 4 * ms, other: 12 * ms, doneAt: 10 * ms, failed: true},
		{name: "host phase already elapsed", armAt: 12 * ms, doneAt: 15 * ms},
		{name: "held across the arming", armAt: 8 * ms, hold: true, doneAt: 20 * ms, failed: true},
	} {
		eng, procs, dev, c := newLeadRig(t)
		other, err := dev.NewClient(ClientConfig{Name: "other"})
		if err != nil {
			t.Fatal(err)
		}
		spec := &KernelSpec{Name: "k", Duration: 5 * ms, Demand: 0.4}
		doneAt, gotErr := time.Duration(-1), error(nil)
		procs.SpawnInline("t", func(p *simproc.Process) {
			c.ExecLeadThen(p, spec, 10*ms, func(res any) {
				doneAt = eng.Now()
				gotErr, _ = res.(error)
				p.Exit(nil)
			})
		})
		eng.Schedule(tc.armAt, "arm", func() { dev.InjectKernelFault("") })
		var otherErr error
		if tc.other > 0 {
			eng.Schedule(tc.other, "other", func() {
				otherErr = other.Launch(&KernelSpec{Name: "o", Duration: ms, Demand: 0.4}, nil)
			})
		}
		if tc.hold {
			eng.Schedule(6*ms, "hold", c.HoldLead)
			eng.Schedule(20*ms, "release", c.ReleaseLead)
		}
		eng.RunUntil(50 * ms)
		if doneAt != tc.doneAt || (gotErr != nil) != tc.failed {
			t.Errorf("%s: lead ended at %v with %v, want at %v, failed=%v", tc.name, doneAt, gotErr, tc.doneAt, tc.failed)
		}
		if (otherErr != nil) != tc.otherErr {
			t.Errorf("%s: the other client's launch returned %v, want failure=%v", tc.name, otherErr, tc.otherErr)
		}
		want := uint64(0) // "already elapsed": the fault stays armed
		if tc.failed || tc.otherErr {
			want = 1
		}
		if got := dev.InjectedKernelFaults(); got != want {
			t.Errorf("%s: InjectedKernelFaults = %d, want %d", tc.name, got, want)
		}
	}
}

// TestExecLeadThenAllocFree pins the tentpole guarantee for the fused step
// dispatch: a steady host-lead self-loop — completion via the chained wake,
// lead insert/arm/mature, the completion hypothesis read from the share
// cache — runs at 0 allocs/op.
func TestExecLeadThenAllocFree(t *testing.T) {
	eng, _, a, b := newTwoClientRig(t)
	procs := simproc.NewRuntime(eng)
	specA := &KernelSpec{Name: "ka", Duration: 3 * time.Microsecond, Demand: 0.6, Weight: 0.6}
	specB := &KernelSpec{Name: "kb", Duration: 5 * time.Microsecond, Demand: 0.7, Weight: 0.9}
	start := func(c *Client, spec *KernelSpec, lead time.Duration) func(p *simproc.Process) {
		return func(p *simproc.Process) {
			var k func(any)
			k = func(res any) {
				if res != nil {
					p.Exit(res.(error))
					return
				}
				c.ExecLeadThen(p, spec, lead, k)
			}
			c.ExecLeadThen(p, spec, lead, k)
		}
	}
	procs.SpawnInline("loop-a", start(a, specA, 2*time.Microsecond))
	procs.SpawnInline("loop-b", start(b, specB, 4*time.Microsecond))
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("fused ExecLeadThen dispatch allocates %.2f objects/op, want 0", allocs)
	}
}

// TestQueueDepthCountsLaunchedKernels pins what QueueDepth and Busy report
// around host phases, on a lead-capable and a FullRebalance device alike:
// nothing while both leads on one shared client are still in their host
// phase (the two-event form's sleeps), the running kernel once the first
// transfer ends, and the second queued behind it once its transfer ends too.
func TestQueueDepthCountsLaunchedKernels(t *testing.T) {
	const ms = time.Millisecond
	for _, full := range []bool{false, true} {
		eng := simtime.NewVirtual()
		procs := simproc.NewRuntime(eng)
		dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true, FullRebalance: full})
		c := mustClient(t, dev, ClientConfig{Name: "task"})
		specs := []KernelSpec{{Name: "a", Duration: 5 * ms, Demand: 1}, {Name: "b", Duration: 5 * ms, Demand: 1}}
		for i := range specs {
			procs.SpawnInline(specs[i].Name, func(p *simproc.Process) {
				c.ExecLeadThen(p, &specs[i], time.Duration(2+i)*ms, func(any) { p.Exit(nil) })
			})
		}
		for _, want := range []struct {
			at    time.Duration
			depth int
			busy  bool
		}{
			{1 * ms, 0, false},     // both in their host phase
			{2*ms + ms/2, 1, true}, // a's transfer ended at 2ms: running
			{3*ms + ms/2, 2, true}, // b's at 3ms: queued behind a
			{7*ms + ms/2, 1, true}, // a retired at 7ms, b running
			{13 * ms, 0, false},    // b retired at 12ms
		} {
			eng.RunUntil(want.at)
			if depth, busy := c.QueueDepth(), c.Busy(); depth != want.depth || busy != want.busy {
				t.Errorf("full rebalance %v, at %v: QueueDepth %d, Busy %v; want %d, %v", full, want.at, depth, busy, want.depth, want.busy)
			}
		}
	}
}

// shareSnapshot is a deep copy of a device's share cache: both entries, the
// MRU index and the hit/miss counters.
type shareSnapshot struct {
	keys         [2][]shareKey
	allocs       [2][]float64
	taxed, valid [2]bool
	mru          int
	hits, misses uint64
}

func snapshotShares(d *Device) shareSnapshot {
	s := shareSnapshot{mru: d.mru}
	s.hits, s.misses = d.ShareCacheStats()
	for i, e := range d.shares {
		s.keys[i] = slices.Clone(e.key)
		s.allocs[i] = slices.Clone(e.allocs)
		s.taxed[i], s.valid[i] = e.taxed, e.valid
	}
	return s
}

func (s shareSnapshot) equal(o shareSnapshot) bool {
	for i := range s.keys {
		if !slices.Equal(s.keys[i], o.keys[i]) || !slices.Equal(s.allocs[i], o.allocs[i]) {
			return false
		}
	}
	return s.taxed == o.taxed && s.valid == o.valid && s.mru == o.mru && s.hits == o.hits && s.misses == o.misses
}

// TestLeadHypothesisMatchesDryRun pins the lead hypothesis's share-cache
// read. On random devices — 1–4 self-looping clients, some launching through
// host leads, under MPS or time-slicing, with the residency tax on or off and
// random demand, weight and residency — every pending lead's hypothesis must
// equal the forced dry run's (alloc, idx, soonest) bit for bit, arming a lead
// must leave the cache's entries, MRU order and hit/miss counts as they were,
// and after every engine step the MRU entry must be the running set's.
func TestLeadHypothesisMatchesDryRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var hits, misses int
	for trial := 0; trial < 200; trial++ {
		cfg := DeviceConfig{Name: "gpu", NoTraces: true, Policy: PolicyMPS}
		if rng.Intn(2) == 0 {
			cfg.Policy = PolicyTimeSlice
		}
		if rng.Intn(2) == 0 {
			cfg.ResidencyTax = DefaultResidencyTax
		}
		eng := simtime.NewVirtual()
		procs := simproc.NewRuntime(eng)
		dev := NewDevice(eng, cfg)
		n := 1 + rng.Intn(4)
		leader := rng.Intn(n) // at least one client launches through leads
		for i := 0; i < n; i++ {
			cc := ClientConfig{Name: fmt.Sprintf("c%d", i)}
			if rng.Intn(3) == 0 {
				cc.Weight = 0.25 + 2*rng.Float64()
			}
			c := mustClient(t, dev, cc)
			if rng.Intn(2) == 0 {
				if err := c.AllocMem(1); err != nil {
					t.Fatal(err)
				}
			}
			// Two specs per client: a launch picks one at random, so the
			// hypothetical set is sometimes cached and sometimes not.
			specs := make([]KernelSpec, 2)
			for j := range specs {
				specs[j] = KernelSpec{
					Name:     fmt.Sprintf("k%d.%d", i, j),
					Duration: time.Duration(1+rng.Intn(50)) * time.Microsecond,
					Demand:   rng.Float64(),
					Weight:   2 * rng.Float64(),
				}
			}
			leads := i == leader || rng.Intn(2) == 0
			procs.SpawnInline(c.Name(), func(p *simproc.Process) {
				var k func(any)
				k = func(any) {
					spec := &specs[rng.Intn(len(specs))]
					if leads {
						c.ExecLeadThen(p, spec, time.Duration(1+rng.Intn(20))*time.Microsecond, k)
					} else {
						c.ExecThen(p, spec, k)
					}
				}
				k(nil)
			})
		}
		for step := 0; step < 300; step++ {
			eng.Step()
			// Every rebalance leaves its own set's entry MRU, and only a
			// rebalance may: a hypothesis that promoted would leave its own.
			if (dev.shares[0].valid || dev.shares[1].valid) && !dev.shares[dev.mru].matches(dev.running, dev.taxed(dev.resident)) {
				t.Fatalf("trial %d step %d: the MRU share entry is not the running set's", trial, step)
			}
			for _, k := range dev.leads {
				if k.client.streamTaken(k) {
					continue
				}
				running := make([]float64, len(dev.running))
				for i, rk := range dev.running {
					running[i] = rk.alloc
				}
				before := snapshotShares(dev)
				idx, taxed := dev.leadSet(k)
				if dev.shareCachePeek(k, idx, taxed) != nil {
					hits++
				} else {
					misses++
				}
				alloc, gotIdx, soonest := dev.hypothesis(k)
				dry := dev.dryRun(k, idx, taxed)
				dryAlloc, drySoonest := dry[idx], dev.soonest(k, idx, dry)
				if math.Float64bits(alloc) != math.Float64bits(dryAlloc) || gotIdx != idx || soonest != drySoonest {
					t.Fatalf("trial %d step %d: hypothesis (%v, %d, %v), dry run (%v, %d, %v)",
						trial, step, alloc, gotIdx, soonest, dryAlloc, idx, drySoonest)
				}
				dev.armLead(k)
				if after := snapshotShares(dev); !after.equal(before) {
					t.Fatalf("trial %d step %d: arming a lead changed the share cache:\nbefore %+v\nafter  %+v", trial, step, before, after)
				}
				for i, rk := range dev.running {
					if math.Float64bits(rk.alloc) != math.Float64bits(running[i]) {
						t.Fatalf("trial %d step %d: the hypothesis moved running kernel %d's allocation", trial, step, i)
					}
				}
			}
		}
	}
	// Both paths must be exercised, the cache read most of all.
	if hits < 1000 || misses < 100 {
		t.Fatalf("%d cache hits and %d misses among the hypotheses, want ≥ 1000 and ≥ 100", hits, misses)
	}
	t.Logf("%d hypotheses read from the cache, %d dry runs", hits, misses)
}

// BenchmarkExecLead is a host-lead self-loop (a 1 µs lead before every 30 µs
// kernel) beside a plain self-loop on one device, on the event loop: the
// fused side-task step against co-running training kernels. One op is one
// engine step.
func BenchmarkExecLead(b *testing.B) {
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true, ResidencyTax: DefaultResidencyTax})
	lead, err := dev.NewClient(ClientConfig{Name: "lead"})
	if err != nil {
		b.Fatal(err)
	}
	plain, err := dev.NewClient(ClientConfig{Name: "plain"})
	if err != nil {
		b.Fatal(err)
	}
	leadSpec := &KernelSpec{Name: "side", Duration: 30 * time.Microsecond, Demand: 0.5, Weight: 0.5}
	plainSpec := &KernelSpec{Name: "main", Duration: 37 * time.Microsecond, Demand: 1, Weight: 1}
	procs.SpawnInline("lead", func(p *simproc.Process) {
		var k func(any)
		k = func(any) { lead.ExecLeadThen(p, leadSpec, time.Microsecond, k) }
		k(nil)
	})
	procs.SpawnInline("plain", func(p *simproc.Process) {
		var k func(any)
		k = func(any) { plain.ExecThen(p, plainSpec, k) }
		k(nil)
	})
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}
