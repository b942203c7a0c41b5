package simgpu

import (
	"testing"
	"time"

	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// newTwoClientRig builds the steady co-location shape — two clients with
// distinct kernel specs — used by the cache/fusion engagement tests.
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

// TestFusedFoldEngages asserts the completion→relaunch fusion window
// actually folds when a completion callback immediately relaunches: the
// self-loop pays one rebalance per kernel, not two.
func TestFusedFoldEngages(t *testing.T) {
	eng, dev, a, _ := newTwoClientRig(t)
	spec := &KernelSpec{Name: "k", Duration: 3 * time.Microsecond, Demand: 0.6, Weight: 0.6}
	var relaunch func(error)
	relaunch = func(error) { _ = a.Launch(spec, relaunch) }
	relaunch(nil)
	for i := 0; i < 100; i++ {
		eng.Step()
	}
	if folds := dev.FusedFolds(); folds < 90 {
		t.Fatalf("FusedFolds = %d after 100 completion→relaunch cycles, want ≈100", folds)
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

// TestFusedExecThenAllocFree pins the satellite guarantee for the fused
// ExecThen dispatch: an inline process's kernel self-loop — completion
// delivered through the chained wake, ChainWait re-arming the slot, the
// launch folding the deferred rebalance — runs at 0 allocs/op, with both
// fast paths demonstrably engaged.
func TestFusedExecThenAllocFree(t *testing.T) {
	eng, dev, a, b := newTwoClientRig(t)
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
	preFolds := dev.FusedFolds()
	allocs := testing.AllocsPerRun(2000, func() {
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("fused ExecThen dispatch allocates %.2f objects/op, want 0", allocs)
	}
	if folds := dev.FusedFolds(); folds <= preFolds {
		t.Fatalf("pin did not exercise the fold path (folds %d -> %d)", preFolds, folds)
	}
}

// TestFusionFlushOnEntry covers the window's safety valve: a continuation
// that touches the device without relaunching — memory traffic here — must
// observe fully settled scheduler state (the deferred rebalance runs first),
// and the window must not fold into a later, unrelated launch.
func TestFusionFlushOnEntry(t *testing.T) {
	eng, dev, a, b := newTwoClientRig(t)
	specB := &KernelSpec{Name: "kb", Duration: 5 * time.Microsecond, Demand: 0.7, Weight: 0.9}
	done := 0
	_ = b.Launch(specB, func(error) {})
	_ = a.Launch(&KernelSpec{Name: "ka", Duration: 3 * time.Microsecond, Demand: 0.6, Weight: 0.6},
		func(err error) {
			if err != nil {
				t.Errorf("kernel failed: %v", err)
				return
			}
			// Inside a's completion window: this AllocMem must flush the
			// deferred rebalance before charging memory.
			if err := a.AllocMem(1 << 20); err != nil {
				t.Errorf("AllocMem inside completion: %v", err)
			}
			done++
		})
	preFolds := dev.FusedFolds()
	eng.MustDrain(100)
	if done != 1 {
		t.Fatalf("completion ran %d times, want 1", done)
	}
	if dev.FusedFolds() != preFolds {
		t.Fatalf("window folded into an unrelated launch after a flush")
	}
	if got := a.MemUsed(); got != 1<<20 {
		t.Fatalf("client a memory = %d, want %d", got, 1<<20)
	}
}
