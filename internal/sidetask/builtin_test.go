package sidetask

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"freeride/internal/simgpu"
	"freeride/internal/simtime"
)

// newWorkSmall creates a WorkSmall built-in from build, as a session does.
func newWorkSmall(t *testing.T, build func(int64) (func() error, error)) *builtinTask {
	t.Helper()
	task := &builtinTask{scale: WorkSmall, build: build}
	if err := task.CreateSideTask(&Ctx{Rng: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	return task
}

// runAheadTask is a WorkSmall built-in whose real step is the test's func.
func runAheadTask(t *testing.T, step func() error) *builtinTask {
	return newWorkSmall(t, func(int64) (func() error, error) { return step, nil })
}

// join drains every result of the steps reserved and not withdrawn until the
// run-ahead has exited, so that nothing a test started outlives it.
func (t *builtinTask) join() {
	for t.isRunning() || len(t.next) > 0 {
		select {
		case <-t.next:
		case <-time.After(20 * time.Microsecond):
		}
	}
	t.ahead = false
}

// isRunning reports that the run-ahead goroutine is alive.
func (t *builtinTask) isRunning() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.running
}

// depth is how many steps the task may compute past the last result
// StepWork returned.
func (t *builtinTask) depth() int64 { return int64(cap(t.next)) }

// stopCtx is a Ctx whose GPU client StopSideTask can release.
func stopCtx(t *testing.T) *Ctx {
	t.Helper()
	gpu, err := simgpu.NewDevice(simtime.NewVirtual(), simgpu.DeviceConfig{Name: "gpu0"}).NewClient(simgpu.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return &Ctx{GPU: gpu}
}

// awaitGoroutines waits up to limit for the goroutine count to fall back to
// base.
func awaitGoroutines(t *testing.T, base int, limit time.Duration, ending string) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines %v later, %d before", ending, runtime.NumGoroutine(), limit, base)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestStepWorkReturnsStepKFromCallK: each step folds its index into the
// task's state and records the result; the k-th StepWork returns once step k
// has recorded it, with at most steps up to k+D begun — never step k+D+1.
func TestStepWorkReturnsStepKFromCallK(t *testing.T) {
	const n = 200
	var calls atomic.Int64
	var acc uint64
	vals := make([]uint64, n+runAheadDepth)
	task := runAheadTask(t, func() error {
		k := calls.Add(1)
		acc = acc*31 + uint64(k)
		if k <= int64(len(vals)) { // past the bound, the check below fails
			vals[k-1] = acc
		}
		return nil
	})
	defer task.join()
	d := task.depth()
	want := uint64(0)
	for k := int64(1); k <= n; k++ {
		if err := task.StepWork(nil); err != nil {
			t.Fatalf("StepWork %d: %v", k, err)
		}
		want = want*31 + uint64(k)
		if got := vals[k-1]; got != want {
			t.Fatalf("after StepWork %d: step %d recorded %d, want %d", k, k, got, want)
		}
		if c := calls.Load(); c < k || c > k+d {
			t.Fatalf("after StepWork %d: the step ran %d times, want %d to %d", k, c, k, k+d)
		}
	}
}

// TestStepWorkFailureStopsTheRunAhead: a step that fails on its fifth call
// fails the fifth StepWork, and no sixth step is ever begun.
func TestStepWorkFailureStopsTheRunAhead(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	task := runAheadTask(t, func() error {
		if calls.Add(1) == 5 {
			return boom
		}
		return nil
	})
	for k := 1; k <= 4; k++ {
		if err := task.StepWork(nil); err != nil {
			t.Fatalf("StepWork %d: %v", k, err)
		}
	}
	if err := task.StepWork(nil); !errors.Is(err, boom) {
		t.Fatalf("StepWork 5 = %v, want %v", err, boom)
	}
	if task.ahead {
		t.Fatal("a failed step left a successor in flight")
	}
	if c := calls.Load(); c != 5 {
		t.Fatalf("the step ran %d times, want 5", c)
	}
}

// TestStepWorkStepsNeverOverlap: a task's steps run one at a time.
func TestStepWorkStepsNeverOverlap(t *testing.T) {
	var inFlight, most atomic.Int64
	task := runAheadTask(t, func() error {
		if n := inFlight.Add(1); n > most.Load() {
			most.Store(n)
		}
		time.Sleep(100 * time.Microsecond)
		inFlight.Add(-1)
		return nil
	})
	defer task.join()
	for k := 1; k <= 50; k++ {
		if err := task.StepWork(nil); err != nil {
			t.Fatalf("StepWork %d: %v", k, err)
		}
	}
	if m := most.Load(); m != 1 {
		t.Fatalf("%d steps in flight at once, want 1", m)
	}
}

// TestStepWorkNoneStartsNoGoroutine: under WorkNone a step is pure cost model
// and StepWork returns before the run-ahead is considered.
func TestStepWorkNoneStartsNoGoroutine(t *testing.T) {
	task := &builtinTask{scale: WorkNone, build: builtins[0].build}
	if err := task.CreateSideTask(&Ctx{Rng: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for k := 0; k < 1000; k++ {
		if err := task.StepWork(nil); err != nil {
			t.Fatal(err)
		}
	}
	// A step left computing by an earlier test can only exit meanwhile.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after 1000 WorkNone steps, %d before", after, before)
	}
}

// TestStepWorkStopWithdrawsTheRunAhead: once StopSideTask returns, no step
// begins but the one the run-ahead may already have taken from its
// reservation.
func TestStepWorkStopWithdrawsTheRunAhead(t *testing.T) {
	const n = 3
	var begun atomic.Int64
	task := runAheadTask(t, func() error {
		begun.Add(1)
		time.Sleep(200 * time.Microsecond)
		return nil
	})
	for k := 1; k <= n; k++ {
		if err := task.StepWork(nil); err != nil {
			t.Fatalf("StepWork %d: %v", k, err)
		}
	}
	if err := task.StopSideTask(stopCtx(t)); err != nil {
		t.Fatal(err)
	}
	atStop := begun.Load()
	task.join()
	if got := begun.Load(); got > atStop+1 || got > n+task.depth() {
		t.Fatalf("%d steps begun in all, %d when StopSideTask returned after %d StepWorks (depth %d)",
			got, atStop, n, task.depth())
	}
}

// TestStepWorkRunAheadExits: whichever way a task's last step ends, the
// run-ahead goroutine exits by itself within the time of the steps still
// reserved — none after a stop, at most D when the task is killed with
// nothing withdrawn, none after a failed step.
func TestStepWorkRunAheadExits(t *testing.T) {
	const stepTime = time.Millisecond
	boom := errors.New("boom")
	for _, ending := range []string{"stopped", "killed", "failed"} {
		base := runtime.NumGoroutine()
		var calls atomic.Int64
		task := runAheadTask(t, func() error {
			if calls.Add(1) == 5 && ending == "failed" {
				return boom
			}
			time.Sleep(stepTime)
			return nil
		})
		for k := 1; k <= 5; k++ {
			err := task.StepWork(nil)
			if want := k == 5 && ending == "failed"; want != (err != nil) {
				t.Fatalf("%s: StepWork %d = %v", ending, k, err)
			}
		}
		reserved := time.Duration(1)
		switch ending {
		case "stopped":
			if err := task.StopSideTask(stopCtx(t)); err != nil {
				t.Fatal(err)
			}
		case "killed":
			reserved = time.Duration(task.depth())
		}
		// The steps' own time, plus a scheduling margin for a loaded host.
		awaitGoroutines(t, base, 4*reserved*stepTime+200*time.Millisecond, ending)
	}
}

// TestStepWorkRespawnAllocFree: a StepWork that finds the run-ahead exited
// starts it again without allocating (a go statement on a method call would
// allocate its closure each time). TestBuiltinStepAllocFree's loop keeps the
// goroutine busy, so it seldom respawns there.
func TestStepWorkRespawnAllocFree(t *testing.T) {
	task := runAheadTask(t, func() error { return nil })
	work := func() {
		if err := task.StepWork(nil); err != nil {
			t.Fatal(err)
		}
		for task.isRunning() {
			time.Sleep(20 * time.Microsecond)
		}
	}
	work()
	work()
	if allocs := testing.AllocsPerRun(50, work); allocs != 0 {
		t.Fatalf("a StepWork that restarts the run-ahead allocates %.1f objects, want 0", allocs)
	}
	task.join()
}

// TestStepWorkRunsOneAheadOnOneCore: with no spare core the run-ahead
// reserves one step, never two.
func TestStepWorkRunsOneAheadOnOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var calls atomic.Int64
	task := runAheadTask(t, func() error {
		calls.Add(1)
		return nil
	})
	defer task.join()
	if d := task.depth(); d != 1 {
		t.Fatalf("depth %d at GOMAXPROCS=1, want 1", d)
	}
	for k := int64(1); k <= 100; k++ {
		if err := task.StepWork(nil); err != nil {
			t.Fatalf("StepWork %d: %v", k, err)
		}
		// Yield so that the run-ahead, if it may, gets far ahead.
		runtime.Gosched()
		if c := calls.Load(); c > k+1 {
			t.Fatalf("after StepWork %d: the step ran %d times, want at most %d", k, c, k+1)
		}
	}
}
