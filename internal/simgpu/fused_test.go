package simgpu

import (
	"testing"
	"time"

	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// newTwoClientRig builds the steady co-location shape — two clients with
// distinct kernel specs — used by the share-cache and self-loop pins.
func newTwoClientRig(t *testing.T) (*simtime.Virtual, *Device, *Client, *Client) {
	t.Helper()
	eng := simtime.NewVirtual()
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true})
	a, err := dev.NewClient(ClientConfig{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := dev.NewClient(ClientConfig{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	return eng, dev, a, b
}

// TestShareCacheSteadyStateHits asserts the water-fill cache actually
// engages: in a steady two-client relaunch loop the running set alternates
// between a handful of fingerprints, so after warm-up every rebalance is a
// cache hit and the miss counter stops moving.
func TestShareCacheSteadyStateHits(t *testing.T) {
	eng, dev, a, b := newTwoClientRig(t)
	specA := &KernelSpec{Name: "ka", Duration: 3 * time.Microsecond, Demand: 0.6, Weight: 0.6}
	specB := &KernelSpec{Name: "kb", Duration: 5 * time.Microsecond, Demand: 0.7, Weight: 0.9}
	var relaunchA, relaunchB func(error)
	relaunchA = func(error) { _ = a.Launch(specA, relaunchA) }
	relaunchB = func(error) { _ = b.Launch(specB, relaunchB) }
	relaunchA(nil)
	relaunchB(nil)
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	_, warmMisses := dev.ShareCacheStats()
	preHits, _ := dev.ShareCacheStats()
	for i := 0; i < 500; i++ {
		eng.Step()
	}
	hits, misses := dev.ShareCacheStats()
	if misses != warmMisses {
		t.Fatalf("cache missed %d times in steady state (total %d), want 0 new misses", misses-warmMisses, misses)
	}
	if hits <= preHits {
		t.Fatalf("cache hits did not grow (%d -> %d); fast path not engaged", preHits, hits)
	}
}

// TestShareCacheHitAllocFree pins the cache-hit path at 0 allocs/op: the
// two-client steady state exercises fingerprint compare, MRU promotion and
// vector install on every kernel event.
func TestShareCacheHitAllocFree(t *testing.T) {
	eng, dev, a, b := newTwoClientRig(t)
	specA := &KernelSpec{Name: "ka", Duration: 3 * time.Microsecond, Demand: 0.6, Weight: 0.6}
	specB := &KernelSpec{Name: "kb", Duration: 5 * time.Microsecond, Demand: 0.7, Weight: 0.9}
	var relaunchA, relaunchB func(error)
	relaunchA = func(error) { _ = a.Launch(specA, relaunchA) }
	relaunchB = func(error) { _ = b.Launch(specB, relaunchB) }
	relaunchA(nil)
	relaunchB(nil)
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	preHits, _ := dev.ShareCacheStats()
	allocs := testing.AllocsPerRun(2000, func() {
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("cache-hit rebalance allocates %.2f objects/op, want 0", allocs)
	}
	if hits, _ := dev.ShareCacheStats(); hits <= preHits {
		t.Fatalf("pin did not exercise the hit path (hits %d -> %d)", preHits, hits)
	}
}

// TestExecThenSelfLoopAllocFree pins the ExecThen self-loop dispatch at 0
// allocs/op: an inline process's kernel completion delivered through the
// chained wake, ChainWait re-arming the slot, the launch rebalancing beside
// the other client's kernel.
func TestExecThenSelfLoopAllocFree(t *testing.T) {
	eng, _, a, b := newTwoClientRig(t)
	procs := simproc.NewRuntime(eng)
	specA := &KernelSpec{Name: "ka", Duration: 3 * time.Microsecond, Demand: 0.6, Weight: 0.6}
	specB := &KernelSpec{Name: "kb", Duration: 5 * time.Microsecond, Demand: 0.7, Weight: 0.9}
	start := func(c *Client, spec *KernelSpec) func(p *simproc.Process) {
		return func(p *simproc.Process) {
			var k func(any)
			k = func(res any) {
				if res != nil {
					p.Exit(res.(error))
					return
				}
				c.ExecThen(p, spec, k)
			}
			c.ExecThen(p, spec, k)
		}
	}
	procs.SpawnInline("loop-a", start(a, specA))
	procs.SpawnInline("loop-b", start(b, specB))
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("ExecThen self-loop dispatch allocates %.2f objects/op, want 0", allocs)
	}
}
