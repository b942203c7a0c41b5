package simgpu

import (
	"fmt"
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

var (
	sinkDevice *Device
	sinkClient *Client
)

// TestNewDeviceAndClientAllocs pins what building a device and a client costs
// when nothing records: the occupancy and memory series are held by value and
// allocate nothing until their first point, so a device is its struct and its
// client map, and a client is its struct plus its place in the device's map
// and order list.
func TestNewDeviceAndClientAllocs(t *testing.T) {
	eng := simtime.NewVirtual()
	cfg := DeviceConfig{Name: "gpu", NoTraces: true}
	dev := testing.AllocsPerRun(100, func() { sinkDevice = NewDevice(eng, cfg) })
	names := make([]string, 101)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	i := 0
	both := testing.AllocsPerRun(100, func() {
		sinkDevice = NewDevice(eng, cfg)
		sinkClient, _ = sinkDevice.NewClient(ClientConfig{Name: names[i]})
		i++
	})
	t.Logf("NewDevice %.0f allocs, NewClient %.0f", dev, both-dev)
	if dev > 2 || both-dev > 3 {
		t.Fatalf("NewDevice allocates %.0f objects, NewClient %.0f; want at most 2 and 3", dev, both-dev)
	}
}
