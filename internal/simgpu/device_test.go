package simgpu

import (
	"errors"
	"math"
	"testing"
	"time"

	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

func newDev(t *testing.T, cfg DeviceConfig) (*simtime.Virtual, *Device) {
	t.Helper()
	eng := simtime.NewVirtual()
	return eng, NewDevice(eng, cfg)
}

func mustClient(t *testing.T, d *Device, cfg ClientConfig) *Client {
	t.Helper()
	c, err := d.NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return c
}

func TestSoloKernelRunsAtSpecDuration(t *testing.T) {
	eng, d := newDev(t, DeviceConfig{})
	c := mustClient(t, d, ClientConfig{Name: "train"})
	var doneAt time.Duration
	if err := c.Launch(&KernelSpec{Name: "fp", Duration: time.Second}, func(err error) {
		if err != nil {
			t.Errorf("completion err = %v", err)
		}
		doneAt = eng.Now()
	}); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	eng.MustDrain(100)
	if doneAt != time.Second {
		t.Fatalf("kernel finished at %v, want 1s", doneAt)
	}
	if d.KernelsCompleted() != 1 {
		t.Fatalf("KernelsCompleted = %d, want 1", d.KernelsCompleted())
	}
}

func TestPartialDemandKernelSameDuration(t *testing.T) {
	// A kernel with demand 0.5 uses half the SMs but still takes its solo
	// duration when unshared.
	eng, d := newDev(t, DeviceConfig{})
	c := mustClient(t, d, ClientConfig{Name: "side"})
	var doneAt time.Duration
	c.Launch(&KernelSpec{Name: "step", Duration: time.Second, Demand: 0.5}, func(error) {
		doneAt = eng.Now()
	})
	eng.RunUntil(500 * time.Millisecond)
	if occ := d.Occupancy().At(250 * time.Millisecond); math.Abs(occ-0.5) > 1e-9 {
		t.Fatalf("occupancy mid-kernel = %v, want 0.5", occ)
	}
	eng.MustDrain(100)
	if doneAt != time.Second {
		t.Fatalf("finished at %v, want 1s", doneAt)
	}
}

func TestClientKernelsSerializeFIFO(t *testing.T) {
	eng, d := newDev(t, DeviceConfig{})
	c := mustClient(t, d, ClientConfig{Name: "x"})
	var order []string
	for _, name := range []string{"k1", "k2", "k3"} {
		name := name
		c.Launch(&KernelSpec{Name: name, Duration: time.Second}, func(error) {
			order = append(order, name)
		})
	}
	if got := c.QueueDepth(); got != 3 {
		t.Fatalf("QueueDepth = %d, want 3", got)
	}
	eng.MustDrain(100)
	if len(order) != 3 || order[0] != "k1" || order[1] != "k2" || order[2] != "k3" {
		t.Fatalf("order = %v, want [k1 k2 k3]", order)
	}
	if eng.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s (serialized)", eng.Now())
	}
}

func TestMPSWeightedSharing(t *testing.T) {
	// Training kernel (w=1, d=1) vs Graph-SGD-like kernel (w=4, d=0.85):
	// training gets 1/5 of the device, SGD gets 4/5.
	eng, d := newDev(t, DeviceConfig{Policy: PolicyMPS})
	train := mustClient(t, d, ClientConfig{Name: "train"})
	side := mustClient(t, d, ClientConfig{Name: "sgd"})

	var trainDone, sideDone time.Duration
	side.Launch(&KernelSpec{Name: "sgd", Duration: time.Second, Demand: 0.85, Weight: 4}, func(error) {
		sideDone = eng.Now()
	})
	train.Launch(&KernelSpec{Name: "fp", Duration: time.Second, Demand: 1, Weight: 1}, func(error) {
		trainDone = eng.Now()
	})
	eng.RunUntil(100 * time.Millisecond)
	occ := d.Occupancy().At(50 * time.Millisecond)
	if math.Abs(occ-1.0) > 1e-9 {
		t.Fatalf("total occupancy = %v, want 1.0 (saturated)", occ)
	}
	if got := train.OccTrace().At(50 * time.Millisecond); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("train alloc = %v, want 0.2", got)
	}
	eng.MustDrain(100)
	// SGD work = 0.85 SM-s at rate 0.8 => 1.0625s. Training runs at 0.2
	// until then, completing 0.2125 of its 1.0 work, then expands to full
	// rate: total = 1.0625 + 0.7875 = 1.85s.
	if math.Abs(sideDone.Seconds()-1.0625) > 1e-3 {
		t.Fatalf("side done at %v, want ~1.0625s", sideDone)
	}
	if math.Abs(trainDone.Seconds()-1.85) > 1e-3 {
		t.Fatalf("train done at %v, want ~1.85s", trainDone)
	}
}

func TestMPSLightSideTaskBarelyInterferes(t *testing.T) {
	// Image-processing-like kernel (w=0.15, d=0.3) vs training: training
	// keeps ~87% of the device.
	eng, d := newDev(t, DeviceConfig{Policy: PolicyMPS})
	train := mustClient(t, d, ClientConfig{Name: "train"})
	side := mustClient(t, d, ClientConfig{Name: "img"})
	side.Launch(&KernelSpec{Name: "img", Duration: 10 * time.Second, Demand: 0.3, Weight: 0.15}, nil)
	train.Launch(&KernelSpec{Name: "fp", Duration: time.Second}, nil)
	eng.RunUntil(100 * time.Millisecond)
	got := train.OccTrace().At(50 * time.Millisecond)
	want := 1.0 / 1.15
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("train alloc = %v, want %v", got, want)
	}
	eng.MustDrain(100)
}

func TestMPSDemandCappedKernelLeavesCapacity(t *testing.T) {
	// Two kernels with small demands fit side by side without stretching.
	eng, d := newDev(t, DeviceConfig{Policy: PolicyMPS})
	a := mustClient(t, d, ClientConfig{Name: "a"})
	b := mustClient(t, d, ClientConfig{Name: "b"})
	var aDone, bDone time.Duration
	a.Launch(&KernelSpec{Name: "ka", Duration: time.Second, Demand: 0.4}, func(error) { aDone = eng.Now() })
	b.Launch(&KernelSpec{Name: "kb", Duration: time.Second, Demand: 0.5}, func(error) { bDone = eng.Now() })
	eng.MustDrain(100)
	if aDone != time.Second || bDone != time.Second {
		t.Fatalf("done at %v/%v, want 1s/1s (no contention)", aDone, bDone)
	}
}

func TestTimeSliceHalvesRates(t *testing.T) {
	eng, d := newDev(t, DeviceConfig{Policy: PolicyTimeSlice})
	a := mustClient(t, d, ClientConfig{Name: "a"})
	b := mustClient(t, d, ClientConfig{Name: "b"})
	var aDone time.Duration
	a.Launch(&KernelSpec{Name: "ka", Duration: time.Second, Demand: 1}, func(error) { aDone = eng.Now() })
	b.Launch(&KernelSpec{Name: "kb", Duration: 10 * time.Second, Demand: 1}, nil)
	eng.RunUntil(1900 * time.Millisecond)
	if aDone != 0 {
		t.Fatalf("a done at %v, want not yet (time-sliced)", aDone)
	}
	eng.MustDrain(100)
	if math.Abs(aDone.Seconds()-2.0) > 1e-3 {
		t.Fatalf("a done at %v, want ~2s (half rate)", aDone)
	}
}

func TestMemAccountingAndClientLimit(t *testing.T) {
	_, d := newDev(t, DeviceConfig{MemBytes: 100})
	c := mustClient(t, d, ClientConfig{Name: "x", MemLimitBytes: 40})
	if err := c.AllocMem(30); err != nil {
		t.Fatalf("AllocMem(30): %v", err)
	}
	err := c.AllocMem(20)
	if !errors.Is(err, ErrClientOOM) {
		t.Fatalf("AllocMem over limit = %v, want ErrClientOOM", err)
	}
	if c.MemUsed() != 30 {
		t.Fatalf("MemUsed = %d, want 30 (failed alloc must not charge)", c.MemUsed())
	}
	c.FreeMem(10)
	if err := c.AllocMem(20); err != nil {
		t.Fatalf("AllocMem after free: %v", err)
	}
}

func TestMemDeviceOOMOnlyAffectsRequester(t *testing.T) {
	_, d := newDev(t, DeviceConfig{MemBytes: 100})
	a := mustClient(t, d, ClientConfig{Name: "a"})
	b := mustClient(t, d, ClientConfig{Name: "b"})
	if err := a.AllocMem(80); err != nil {
		t.Fatalf("a.AllocMem: %v", err)
	}
	if err := b.AllocMem(30); !errors.Is(err, ErrDeviceOOM) {
		t.Fatalf("b.AllocMem = %v, want ErrDeviceOOM", err)
	}
	if a.MemUsed() != 80 || d.MemUsed() != 80 {
		t.Fatal("failed allocation perturbed accounting")
	}
}

func TestFreeMemClamps(t *testing.T) {
	_, d := newDev(t, DeviceConfig{MemBytes: 100})
	c := mustClient(t, d, ClientConfig{Name: "x"})
	c.AllocMem(10)
	c.FreeMem(50)
	if c.MemUsed() != 0 || d.MemUsed() != 0 {
		t.Fatalf("MemUsed = %d/%d, want 0/0", c.MemUsed(), d.MemUsed())
	}
}

func TestDestroyAbortsKernelsAndFreesMemory(t *testing.T) {
	eng, d := newDev(t, DeviceConfig{})
	c := mustClient(t, d, ClientConfig{Name: "x"})
	c.AllocMem(1 << 20)
	var errs []error
	for i := 0; i < 2; i++ {
		c.Launch(&KernelSpec{Name: "k", Duration: time.Hour}, func(err error) {
			errs = append(errs, err)
		})
	}
	eng.RunUntil(time.Second)
	c.Destroy()
	if d.MemUsed() != 0 {
		t.Fatalf("device mem after destroy = %d, want 0", d.MemUsed())
	}
	if len(errs) != 2 {
		t.Fatalf("got %d abort callbacks, want 2", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, ErrKernelAborted) {
			t.Fatalf("abort err = %v, want ErrKernelAborted", err)
		}
	}
	if err := c.AllocMem(1); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("AllocMem after destroy = %v, want ErrClientClosed", err)
	}
	if err := c.Launch(&KernelSpec{Name: "k", Duration: time.Second}, nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Launch after destroy = %v, want ErrClientClosed", err)
	}
	eng.MustDrain(100) // stale completion timers drain harmlessly
}

func TestDestroyReleasesCapacityToSurvivors(t *testing.T) {
	eng, d := newDev(t, DeviceConfig{Policy: PolicyMPS})
	train := mustClient(t, d, ClientConfig{Name: "train"})
	side := mustClient(t, d, ClientConfig{Name: "hog"})
	side.Launch(&KernelSpec{Name: "hog", Duration: time.Hour, Demand: 1, Weight: 4}, nil)
	var trainDone time.Duration
	train.Launch(&KernelSpec{Name: "fp", Duration: time.Second}, func(error) { trainDone = eng.Now() })
	eng.RunUntil(time.Second) // train at rate 0.2: 0.2 work done
	side.Destroy()
	eng.MustDrain(100)
	// Remaining 0.8 work at full rate: finishes at 1.8s.
	if math.Abs(trainDone.Seconds()-1.8) > 1e-3 {
		t.Fatalf("train done at %v, want ~1.8s", trainDone)
	}
}

func TestExecBlocksProcess(t *testing.T) {
	eng := simtime.NewVirtual()
	d := NewDevice(eng, DeviceConfig{})
	rt := simproc.NewRuntime(eng)
	c := mustClient(t, d, ClientConfig{Name: "task"})
	var doneAt time.Duration
	rt.Spawn("task", func(p *simproc.Process) error {
		if err := c.Exec(p, &KernelSpec{Name: "step", Duration: 2 * time.Second}); err != nil {
			return err
		}
		doneAt = p.Now()
		return nil
	})
	eng.MustDrain(100)
	if doneAt != 2*time.Second {
		t.Fatalf("Exec returned at %v, want 2s", doneAt)
	}
}

func TestExecAbortReturnsError(t *testing.T) {
	eng := simtime.NewVirtual()
	d := NewDevice(eng, DeviceConfig{})
	rt := simproc.NewRuntime(eng)
	c := mustClient(t, d, ClientConfig{Name: "task"})
	var got error
	rt.Spawn("task", func(p *simproc.Process) error {
		got = c.Exec(p, &KernelSpec{Name: "step", Duration: time.Hour})
		return nil
	})
	eng.Schedule(time.Second, "destroy", func() { c.Destroy() })
	eng.MustDrain(100)
	if !errors.Is(got, ErrKernelAborted) {
		t.Fatalf("Exec = %v, want ErrKernelAborted", got)
	}
}

func TestDuplicateClientNameRejected(t *testing.T) {
	_, d := newDev(t, DeviceConfig{})
	mustClient(t, d, ClientConfig{Name: "x"})
	if _, err := d.NewClient(ClientConfig{Name: "x"}); err == nil {
		t.Fatal("duplicate client accepted")
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	eng, d := newDev(t, DeviceConfig{Policy: PolicyMPS})
	for i := 0; i < 5; i++ {
		c := mustClient(t, d, ClientConfig{Name: string(rune('a' + i))})
		for j := 0; j < 3; j++ {
			dur := time.Duration(100+i*37+j*61) * time.Millisecond
			c.Launch(&KernelSpec{Name: "k", Duration: dur, Demand: 0.2 + 0.19*float64(i), Weight: 0.1 + 0.8*float64(j)}, nil)
		}
	}
	eng.MustDrain(10000)
	for _, p := range d.Occupancy().Points() {
		if p.V > 1.0+1e-6 {
			t.Fatalf("occupancy %v at %v exceeds capacity", p.V, p.T)
		}
	}
	if d.KernelsCompleted() != 15 {
		t.Fatalf("KernelsCompleted = %d, want 15", d.KernelsCompleted())
	}
}

func TestWorkConservation(t *testing.T) {
	// All submitted work completes, and the occupancy integral equals the
	// total work (SM-seconds in = SM-seconds out).
	eng, d := newDev(t, DeviceConfig{Policy: PolicyMPS})
	var expected float64
	for i := 0; i < 4; i++ {
		c := mustClient(t, d, ClientConfig{Name: string(rune('a' + i))})
		for j := 0; j < 4; j++ {
			dur := time.Duration(50+i*13+j*29) * time.Millisecond
			demand := 0.25 + 0.2*float64(i)
			expected += demand * dur.Seconds()
			c.Launch(&KernelSpec{Name: "k", Duration: dur, Demand: demand}, nil)
		}
	}
	eng.MustDrain(10000)
	if math.Abs(d.WorkDone()-expected) > 1e-9 {
		t.Fatalf("WorkDone = %v, want %v", d.WorkDone(), expected)
	}
	integral := d.Occupancy().Integrate(0, eng.Now()+time.Second)
	if math.Abs(integral-expected) > 1e-3 {
		t.Fatalf("occupancy integral = %v, want ~%v", integral, expected)
	}
}

func BenchmarkKernelChurn(b *testing.B) {
	eng := simtime.NewVirtual()
	d := NewDevice(eng, DeviceConfig{})
	a, _ := d.NewClient(ClientConfig{Name: "a"})
	c, _ := d.NewClient(ClientConfig{Name: "b"})
	// Hoisted, so allocs/op counts the device's allocations, not the loop's.
	specA := &KernelSpec{Name: "k", Duration: time.Millisecond, Demand: 0.5}
	specC := &KernelSpec{Name: "k", Duration: time.Millisecond, Demand: 0.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Launch(specA, nil)
		c.Launch(specC, nil)
		if i%256 == 255 {
			eng.Drain(0)
		}
	}
	eng.Drain(0)
}

func TestResidencyTaxSlowsKernelsWhenCoResident(t *testing.T) {
	eng, d := newDev(t, DeviceConfig{ResidencyTax: 0.01})
	train := mustClient(t, d, ClientConfig{Name: "train"})
	side := mustClient(t, d, ClientConfig{Name: "side"})
	// Side task resident (memory only, no kernels).
	if err := side.AllocMem(1 << 30); err != nil {
		t.Fatal(err)
	}
	var doneAt time.Duration
	train.Launch(&KernelSpec{Name: "fp", Duration: time.Second}, func(error) { doneAt = eng.Now() })
	eng.MustDrain(100)
	want := 1.01 // 1s work at rate 1/1.01
	if math.Abs(doneAt.Seconds()-want) > 1e-6 {
		t.Fatalf("taxed kernel finished at %v, want ~%vs", doneAt, want)
	}
}

func TestResidencyTaxNotAppliedSolo(t *testing.T) {
	eng, d := newDev(t, DeviceConfig{ResidencyTax: 0.01})
	train := mustClient(t, d, ClientConfig{Name: "train"})
	var doneAt time.Duration
	train.Launch(&KernelSpec{Name: "fp", Duration: time.Second}, func(error) { doneAt = eng.Now() })
	eng.MustDrain(100)
	if doneAt != time.Second {
		t.Fatalf("solo kernel finished at %v, want 1s (no tax)", doneAt)
	}
}

func TestDestroyStepsClientSeriesToZero(t *testing.T) {
	// Killing a process ends its SM allocation at the kill instant, on its
	// client's series as on the device's (and as its memory already does).
	eng, d := newDev(t, DeviceConfig{})
	c := mustClient(t, d, ClientConfig{Name: "x"})
	c.AllocMem(1 << 20)
	c.Launch(&KernelSpec{Name: "k", Duration: time.Second}, nil)
	eng.RunUntil(100 * time.Millisecond)
	c.Destroy()
	eng.RunUntil(200 * time.Millisecond)
	at := 150 * time.Millisecond
	if got := d.Occupancy().At(at); got != 0 {
		t.Errorf("device occupancy after destroy = %v, want 0", got)
	}
	if got := c.OccTrace().At(at); got != 0 {
		t.Errorf("client occupancy after destroy = %v, want 0", got)
	}
	if got := c.OccTrace().At(50 * time.Millisecond); got != 1 {
		t.Errorf("client occupancy before destroy = %v, want 1", got)
	}
	if got := c.MemTrace().At(at); got != 0 {
		t.Errorf("client memory after destroy = %v, want 0", got)
	}
}
