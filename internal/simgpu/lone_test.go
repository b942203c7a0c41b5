package simgpu

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// TestLoneShareMatchesFill pins the closed form against the water-fill it
// replaces: for one kernel, loneShare's bits equal fill's under both
// policies, with the residency tax configured or not and applied or not,
// with and without a client weight, over demands from below minAlloc to 1
// and spec weights unset, light and heavy — non-finite ones included, which
// normalize must turn into values the two agree on.
func TestLoneShareMatchesFill(t *testing.T) {
	demands := []float64{minAlloc / 2, minAlloc, 0.3, 0.999, 1, math.NaN()}
	weights := []float64{0, 0.2, 5, math.Inf(1), math.NaN()}
	cases := 0
	for _, policy := range []Policy{PolicyMPS, PolicyTimeSlice} {
		for _, tax := range []float64{0, DefaultResidencyTax} {
			for _, taxed := range []bool{false, true} {
				for _, clientWeight := range []float64{0, 2} {
					eng := simtime.NewVirtual()
					dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true, Policy: policy, ResidencyTax: tax})
					c := mustClient(t, dev, ClientConfig{Name: "c", Weight: clientWeight})
					for _, demand := range demands {
						for _, weight := range weights {
							spec := &KernelSpec{Name: "k", Duration: time.Millisecond, Demand: demand, Weight: weight}
							spec.normalize()
							k := dev.popKernel(c, spec, nil, nil)
							dev.fill([]*kernel{k}, taxed)
							got := dev.loneShare(k, taxed)
							if math.Float64bits(got) != math.Float64bits(k.alloc) || math.IsNaN(got) {
								t.Errorf("%v, tax %v applied %v, client weight %v, demand %v, weight %v: loneShare %v, fill %v",
									policy, tax, taxed, clientWeight, demand, weight, got, k.alloc)
							}
							cases++
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// TestNonFiniteSpecsComplete runs kernels whose specs carry a NaN demand, an
// infinite weight or a NaN weight, alone and beside each other, through host
// leads on a lead-capable device and on a FullRebalance one. normalize turns
// them into the defaults, so every kernel completes at a finite instant, the
// same on both devices; a lone NaN-demand kernel runs as a demand-1 kernel.
// A client weight that is not finite is refused outright.
func TestNonFiniteSpecsComplete(t *testing.T) {
	const ms = time.Millisecond
	specs := []KernelSpec{
		{Name: "nan-demand", Duration: 5 * ms, Demand: math.NaN()},
		{Name: "inf-weight", Duration: 5 * ms, Demand: 0.5, Weight: math.Inf(1)},
		{Name: "nan-weight", Duration: 3 * ms, Demand: 0.4, Weight: math.NaN()},
	}
	// run launches each chosen spec from its own client after a 1ms host
	// lead, all at once, and returns each one's completion instant.
	run := func(full bool, chosen []int) []time.Duration {
		eng := simtime.NewVirtual()
		procs := simproc.NewRuntime(eng)
		dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true, FullRebalance: full, ResidencyTax: DefaultResidencyTax})
		ends := make([]time.Duration, len(chosen))
		for i, j := range chosen {
			c := mustClient(t, dev, ClientConfig{Name: fmt.Sprintf("c%d", i)})
			spec := specs[j]
			procs.SpawnInline(c.Name(), func(p *simproc.Process) {
				c.ExecLeadThen(p, &spec, ms, func(res any) {
					if res != nil {
						t.Errorf("%s: %v", spec.Name, res)
					}
					ends[i] = eng.Now()
					p.Exit(nil)
				})
			})
		}
		eng.MustDrain(1 << 10)
		return ends
	}
	for _, chosen := range [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}} {
		lead, ref := run(false, chosen), run(true, chosen)
		for i, j := range chosen {
			if lead[i] <= ms || lead[i] > time.Hour || lead[i] != ref[i] {
				t.Errorf("set %v: %s completed at %v on the lead-capable device, %v on the reference",
					chosen, specs[j].Name, lead[i], ref[i])
			}
		}
		if len(chosen) == 1 && chosen[0] == 0 && lead[0] != 6*ms {
			t.Errorf("a lone NaN-demand kernel completed at %v, want %v (demand 1)", lead[0], 6*ms)
		}
	}

	dev := NewDevice(simtime.NewVirtual(), DeviceConfig{Name: "gpu"})
	for _, w := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := dev.NewClient(ClientConfig{Name: "w", Weight: w}); err == nil {
			t.Errorf("NewClient accepted weight %v", w)
		}
	}
}

// loneLeadRig is one inline process's host-lead self-loop (a lead before
// every 30 µs kernel) alone on a lead-capable device with the residency tax
// on: with a 1 µs lead, the iterative side-task step inside a bubble, one
// engine event per step whose completion retires a lone lead; with none, a
// plain ExecThen self-loop, whose every completion folds into the next
// launch's rebalance of the one-kernel set.
func loneLeadRig(tb testing.TB, lead time.Duration) (*simtime.Virtual, *Device) {
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true, ResidencyTax: DefaultResidencyTax})
	c, err := dev.NewClient(ClientConfig{Name: "task"})
	if err != nil {
		tb.Fatal(err)
	}
	spec := &KernelSpec{Name: "step", Duration: 30 * time.Microsecond, Demand: 0.55, Weight: 0.3}
	procs.SpawnInline("steps", func(p *simproc.Process) {
		var k func(any)
		k = func(any) { c.ExecLeadThen(p, spec, lead, k) }
		k(nil)
	})
	return eng, dev
}

// TestLoneLeadLeavesShareCacheAlone runs 1,000 steps of a lone host-lead
// self-loop after a co-running client has filled the share cache and left,
// and the same for a plain self-loop, which rebalances its one-kernel set
// at every launch: the cache's entries, MRU index and hit/miss counts stay
// exactly as they were. Every lead step retires a lone lead.
func TestLoneLeadLeavesShareCacheAlone(t *testing.T) {
	for _, lead := range []time.Duration{time.Microsecond, 0} {
		eng, dev := loneLeadRig(t, lead)
		other := mustClient(t, dev, ClientConfig{Name: "other"})
		// Two shapes, so both cache entries hold a set of two.
		specs := []KernelSpec{
			{Name: "main", Duration: 37 * time.Microsecond, Demand: 1, Weight: 1},
			{Name: "main", Duration: 23 * time.Microsecond, Demand: 0.8, Weight: 2},
		}
		left := 20
		var relaunch func(error)
		relaunch = func(error) {
			if left--; left > 0 {
				_ = other.Launch(&specs[left%2], relaunch)
			}
		}
		relaunch(nil)
		for left > 0 || other.Busy() {
			eng.Step()
		}
		eng.Step()
		if !dev.shares[0].valid || !dev.shares[1].valid {
			t.Fatalf("lead %v: the co-running client left the share cache unfilled", lead)
		}
		before := snapshotShares(dev)
		lone, _ := dev.Shortcuts()
		kernels := dev.KernelsCompleted()
		for i := 0; i < 1000; i++ {
			eng.Step()
		}
		if after := snapshotShares(dev); !after.equal(before) {
			t.Fatalf("lead %v: lone steps changed the share cache:\nbefore %+v\nafter  %+v", lead, before, after)
		}
		if n := dev.KernelsCompleted() - kernels; n != 1000 {
			t.Fatalf("lead %v: %d kernels completed in 1,000 steps, want 1,000", lead, n)
		}
		if n, _ := dev.Shortcuts(); lead > 0 && n-lone != 1000 {
			t.Fatalf("%d lone leads retired in 1,000 steps, want 1,000", n-lone)
		}
	}
}

// TestLoneLeadStepAllocFree pins BenchmarkLoneLeadStep at 0 allocs/op.
func TestLoneLeadStepAllocFree(t *testing.T) {
	eng, dev := loneLeadRig(t, time.Microsecond)
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	lone, _ := dev.Shortcuts()
	allocs := testing.AllocsPerRun(2000, func() { eng.Step() })
	if allocs != 0 {
		t.Fatalf("a lone host-lead step allocates %.2f objects/op, want 0", allocs)
	}
	if n, _ := dev.Shortcuts(); n == lone {
		t.Fatal("the pin did not retire a lone lead")
	}
}

// BenchmarkLoneLeadStep is the iterative side-task step inside a bubble: one
// inline process's host-lead self-loop alone on a lead-capable device. One
// op is one engine step, one step.
func BenchmarkLoneLeadStep(b *testing.B) {
	eng, _ := loneLeadRig(b, time.Microsecond)
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// leadBesideRig is one inline process's host-lead self-loop (a 1 µs lead
// before every 30 µs kernel) beside one long plain kernel of another client,
// on an MPS device with the residency tax, lead-capable or, with full,
// FullRebalance. The loop exits after steps steps (0: never), appending each
// kernel's end to ends when ends is not nil; the long kernel's end goes there
// too.
func leadBesideRig(tb testing.TB, full bool, steps int, long time.Duration, ends *[]time.Duration) (*simtime.Virtual, *Device) {
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true, FullRebalance: full, ResidencyTax: DefaultResidencyTax})
	c, err := dev.NewClient(ClientConfig{Name: "task"})
	if err != nil {
		tb.Fatal(err)
	}
	main, err := dev.NewClient(ClientConfig{Name: "main"})
	if err != nil {
		tb.Fatal(err)
	}
	record := func() {
		if ends != nil {
			*ends = append(*ends, eng.Now())
		}
	}
	_ = main.Launch(&KernelSpec{Name: "main", Duration: long, Demand: 1, Weight: 1}, func(error) { record() })
	spec := &KernelSpec{Name: "step", Duration: 30 * time.Microsecond, Demand: 0.55, Weight: 0.3}
	procs.SpawnInline("steps", func(p *simproc.Process) {
		n := 0
		var k func(any)
		k = func(any) {
			if n > 0 {
				record()
			}
			if n++; steps > 0 && n > steps {
				p.Exit(nil)
				return
			}
			c.ExecLeadThen(p, spec, time.Microsecond, k)
		}
		k(nil)
	})
	return eng, dev
}

// TestLeadBesideKernelMatchesFullRebalance runs 1,000 steps of a host-lead
// self-loop beside one long plain kernel. Every lead retires unmatured, every
// kernel — the long one too — ends at the instant it ends on a FullRebalance
// device, and the share cache counts what the maturations would: one miss at
// the first step, one hit at every step after it.
func TestLeadBesideKernelMatchesFullRebalance(t *testing.T) {
	var lead, ref []time.Duration
	eng, dev := leadBesideRig(t, false, 1000, time.Second, &lead)
	eng.MustDrain(1 << 20)
	refEng, _ := leadBesideRig(t, true, 1000, time.Second, &ref)
	refEng.MustDrain(1 << 20)
	if len(lead) != 1001 || !slices.Equal(lead, ref) {
		t.Fatalf("%d kernel ends, want 1,001; lead-capable and FullRebalance ends differ: %v\nvs %v", len(lead), lead, ref)
	}
	if lead[999] >= lead[1000] {
		t.Fatalf("the long kernel ended at %v, inside the steps (last %v)", lead[1000], lead[999])
	}
	if n, _ := dev.Shortcuts(); n != 1000 {
		t.Fatalf("%d leads retired unmatured, want 1,000", n)
	}
	if hits, misses := dev.ShareCacheStats(); hits != 999 || misses != 1 {
		t.Fatalf("share cache: %d hits, %d misses; want 999 and 1", hits, misses)
	}
}

// TestLeadBesideKernelAllocFree pins BenchmarkLeadBesideKernel at 0 allocs/op.
func TestLeadBesideKernelAllocFree(t *testing.T) {
	eng, dev := leadBesideRig(t, false, 0, 24*time.Hour, nil)
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	unmatured, _ := dev.Shortcuts()
	allocs := testing.AllocsPerRun(2000, func() { eng.Step() })
	if allocs != 0 {
		t.Fatalf("a host-lead step beside a kernel allocates %.2f objects/op, want 0", allocs)
	}
	if n, _ := dev.Shortcuts(); n == unmatured {
		t.Fatal("the pin did not retire a lead unmatured")
	}
}

// BenchmarkLeadBesideKernel is the co-located side-task step of the Table 2
// baselines: one inline process's host-lead self-loop beside a long kernel of
// another client on a lead-capable MPS device. One op is one engine step, one
// step.
func BenchmarkLeadBesideKernel(b *testing.B) {
	eng, _ := leadBesideRig(b, false, 0, 24*time.Hour, nil)
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}
