package simgpu

import (
	"testing"
	"time"

	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// TestExecAllocFree pins the blocking kernel path: once the kernel pool and
// the process's wait slot are warm, each launch→park→complete→wake cycle
// (one engine step per kernel) allocates nothing — no setup closure, no
// completion closure, no WaitEvent state.
func TestExecAllocFree(t *testing.T) {
	eng := simtime.NewVirtual()
	rt := simproc.NewRuntime(eng)
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true})
	c, err := dev.NewClient(ClientConfig{Name: "task"})
	if err != nil {
		t.Fatal(err)
	}
	spec := &KernelSpec{Name: "k", Duration: time.Microsecond, Demand: 0.5, Weight: 0.5}
	rt.Spawn("execer", func(p *simproc.Process) error {
		for {
			if err := c.Exec(p, spec); err != nil {
				return err
			}
		}
	})
	for i := 0; i < 16; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("Exec cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestExecThenAllocFree pins the inline variant: the continuation form must
// be as clean as the blocking one.
func TestExecThenAllocFree(t *testing.T) {
	eng := simtime.NewVirtual()
	rt := simproc.NewRuntime(eng)
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true})
	c, err := dev.NewClient(ClientConfig{Name: "task"})
	if err != nil {
		t.Fatal(err)
	}
	spec := &KernelSpec{Name: "k", Duration: time.Microsecond, Demand: 0.5, Weight: 0.5}
	rt.SpawnInline("execer", func(p *simproc.Process) {
		var k func(any)
		k = func(res any) {
			if res != nil {
				p.Exit(res.(error))
				return
			}
			c.ExecThen(p, spec, k)
		}
		c.ExecThen(p, spec, k)
	})
	for i := 0; i < 16; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("ExecThen cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestQueuedLaunchAllocFree pins the shared-stream shape of interleaved
// pipeline chunks: two self-looping processes on one client, so every launch
// queues behind the other's running kernel and every completion promotes the
// queued one. The stream queue must recycle its slots — launch behind a
// running kernel → complete → promote allocates nothing.
func TestQueuedLaunchAllocFree(t *testing.T) {
	eng := simtime.NewVirtual()
	rt := simproc.NewRuntime(eng)
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true})
	c, err := dev.NewClient(ClientConfig{Name: "task"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		spec := &KernelSpec{Name: "k", Duration: time.Microsecond, Demand: 0.5, Weight: 0.5}
		rt.SpawnInline("chunk", func(p *simproc.Process) {
			var k func(any)
			k = func(res any) {
				if res != nil {
					p.Exit(res.(error))
					return
				}
				c.ExecThen(p, spec, k)
			}
			c.ExecThen(p, spec, k)
		})
	}
	for i := 0; i < 16; i++ {
		eng.Step()
	}
	if c.QueueDepth() != 2 {
		t.Fatalf("queue depth %d, want one running and one queued kernel", c.QueueDepth())
	}
	allocs := testing.AllocsPerRun(2000, func() {
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("queued launch cycle allocates %.1f objects/op, want 0", allocs)
	}
}
