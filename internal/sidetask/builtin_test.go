package sidetask

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
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

// join waits for the step computing ahead, if any, so that nothing a test
// started outlives it.
func (t *builtinTask) join() {
	if t.ahead {
		<-t.next
		t.ahead = false
	}
}

// TestStepWorkReturnsStepKFromCallK: each step folds its index into the
// task's state and records the result; the k-th StepWork returns once step k
// has recorded it, with step k+1 at most begun — never step k+2.
func TestStepWorkReturnsStepKFromCallK(t *testing.T) {
	const n = 200
	var calls atomic.Int64
	var acc uint64
	vals := make([]uint64, n+1)
	task := runAheadTask(t, func() error {
		k := calls.Add(1)
		acc = acc*31 + uint64(k)
		vals[k-1] = acc
		return nil
	})
	defer task.join()
	want := uint64(0)
	for k := int64(1); k <= n; k++ {
		if err := task.StepWork(nil); err != nil {
			t.Fatalf("StepWork %d: %v", k, err)
		}
		want = want*31 + uint64(k)
		if got := vals[k-1]; got != want {
			t.Fatalf("after StepWork %d: step %d recorded %d, want %d", k, k, got, want)
		}
		if c := calls.Load(); c != k && c != k+1 {
			t.Fatalf("after StepWork %d: the step ran %d times, want %d or %d", k, c, k, k+1)
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
