package container

import (
	"errors"
	"testing"
	"time"

	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

type fixture struct {
	eng *simtime.Virtual
	rt  *Runtime
	dev *simgpu.Device
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu0"})
	return &fixture{eng: eng, rt: NewRuntime(procs), dev: dev}
}

func TestContainerRunsBody(t *testing.T) {
	f := newFixture(t)
	ran := false
	c, err := f.rt.Run(Spec{Name: "t1", Device: f.dev}, func(p *simproc.Process, gpu *simgpu.Client) error {
		ran = gpu != nil
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	f.eng.MustDrain(100)
	if !ran {
		t.Fatal("body did not run with GPU client")
	}
	exited, exitErr := c.ExitInfo()
	if !exited || exitErr != nil {
		t.Fatalf("ExitInfo = %v/%v, want exited cleanly", exited, exitErr)
	}
}

func TestContainerCPUOnly(t *testing.T) {
	f := newFixture(t)
	var gotGPU *simgpu.Client
	f.rt.Run(Spec{Name: "cpu"}, func(p *simproc.Process, gpu *simgpu.Client) error {
		gotGPU = gpu
		return nil
	})
	f.eng.MustDrain(100)
	if gotGPU != nil {
		t.Fatal("CPU-only container received a GPU client")
	}
}

func TestKillDestroysGPUContext(t *testing.T) {
	f := newFixture(t)
	c, _ := f.rt.Run(Spec{Name: "t1", Device: f.dev, GPUMemLimit: 8 << 30},
		func(p *simproc.Process, gpu *simgpu.Client) error {
			if err := gpu.AllocMem(4 << 30); err != nil {
				return err
			}
			return gpu.Exec(p, &simgpu.KernelSpec{Name: "hog", Duration: time.Hour})
		})
	var exitAt time.Duration
	c.Process().OnExit(func(error) { exitAt = f.eng.Now() })
	f.eng.RunUntil(time.Second)
	if f.dev.MemUsed() != 4<<30 {
		t.Fatalf("device mem = %d, want 4GiB", f.dev.MemUsed())
	}
	f.eng.Schedule(0, "kill", func() { c.Kill() })
	f.eng.RunUntil(2 * time.Second)
	if c.Alive() {
		t.Fatal("container alive after kill")
	}
	if f.dev.MemUsed() != 0 {
		t.Fatalf("device mem = %d after kill, want 0 (context destroyed)", f.dev.MemUsed())
	}
	exited, err := c.ExitInfo()
	if !exited || !errors.Is(err, simproc.ErrKilled) {
		t.Fatalf("ExitInfo = %v/%v, want killed", exited, err)
	}
	if exitAt != time.Second {
		t.Fatalf("exit at %v, want 1s", exitAt)
	}
}

func TestOOMExitReleasesEverything(t *testing.T) {
	f := newFixture(t)
	c, _ := f.rt.Run(Spec{Name: "leaky", Device: f.dev, GPUMemLimit: 1 << 30},
		func(p *simproc.Process, gpu *simgpu.Client) error {
			for {
				if err := gpu.AllocMem(256 << 20); err != nil {
					return err // OOM kills the task, not the device
				}
				p.Sleep(100 * time.Millisecond)
			}
		})
	f.eng.RunUntil(10 * time.Second)
	exited, err := c.ExitInfo()
	if !exited || !errors.Is(err, simgpu.ErrClientOOM) {
		t.Fatalf("ExitInfo = %v/%v, want client OOM", exited, err)
	}
	if f.dev.MemUsed() != 0 {
		t.Fatalf("device mem = %d, want 0", f.dev.MemUsed())
	}
}

func TestStopContKeepKernelRunning(t *testing.T) {
	// SIGTSTP must not abort in-flight GPU work — the asynchronous-kernel
	// property the imperative interface's overhead comes from.
	f := newFixture(t)
	var execErr error
	var kernelDone, resumedAt time.Duration
	c, _ := f.rt.Run(Spec{Name: "t", Device: f.dev},
		func(p *simproc.Process, gpu *simgpu.Client) error {
			execErr = gpu.Exec(p, &simgpu.KernelSpec{Name: "k", Duration: 2 * time.Second})
			resumedAt = p.Now()
			return nil
		})
	f.eng.Schedule(time.Second, "stop", func() { c.Stop() })
	f.eng.Schedule(5*time.Second, "cont", func() { c.Cont() })
	f.eng.Schedule(0, "watch", func() {})
	// Track device idle moment: kernel should complete at 2s regardless.
	f.eng.RunUntil(3 * time.Second)
	if f.dev.KernelsCompleted() != 1 {
		t.Fatal("kernel did not complete while process was stopped")
	}
	kernelDone = 2 * time.Second
	f.eng.MustDrain(100)
	if execErr != nil {
		t.Fatalf("Exec err = %v", execErr)
	}
	if resumedAt != 5*time.Second {
		t.Fatalf("process resumed at %v, want 5s (after SIGCONT)", resumedAt)
	}
	_ = kernelDone
}

func TestDuplicateNameRejected(t *testing.T) {
	f := newFixture(t)
	f.rt.Run(Spec{Name: "x"}, func(p *simproc.Process, _ *simgpu.Client) error {
		p.Sleep(time.Hour)
		return nil
	})
	if _, err := f.rt.Run(Spec{Name: "x"}, func(*simproc.Process, *simgpu.Client) error { return nil }); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate Run err = %v, want ErrDuplicate", err)
	}
}

func TestRemoveLifecycle(t *testing.T) {
	f := newFixture(t)
	f.rt.Run(Spec{Name: "x"}, func(p *simproc.Process, _ *simgpu.Client) error {
		p.Sleep(time.Second)
		return nil
	})
	f.eng.RunUntil(100 * time.Millisecond)
	if err := f.rt.Remove("x"); err == nil {
		t.Fatal("Remove of live container succeeded")
	}
	f.eng.MustDrain(100)
	if err := f.rt.Remove("x"); err != nil {
		t.Fatalf("Remove after exit: %v", err)
	}
	if err := f.rt.Remove("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Remove = %v, want ErrNotFound", err)
	}
	// The name is free again.
	if _, err := f.rt.Run(Spec{Name: "x"}, func(*simproc.Process, *simgpu.Client) error { return nil }); err != nil {
		t.Fatalf("Run after remove: %v", err)
	}
}
