package simgpu

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// foldSentinel is the far-future event the fold tests queue beside a lone
// step loop: with it queued, a lone completion due before it folds into the
// completion that armed it; without it the queue is empty and nothing folds.
const foldSentinel = 1000 * time.Hour

// foldEnd is one kernel end of runFoldLoop: the instant, and whether the
// completion was folded into the dispatch before it (FusedFolds moved).
type foldEnd struct {
	at     time.Duration
	folded bool
}

// foldLoop is one run of runFoldLoop.
type foldLoop struct {
	ends                   []foldEnd
	steps                  int
	kernels                uint64
	work                   float64
	hits, misses           uint64
	unmatured, inPlace     uint64
	folds                  uint64
	engFolded              uint64
	foldedBy, dispatchedBy [simtime.NumOwners]uint64
}

// foldCase is a scenario of runFoldLoop: steps of parts kernels of 4 µs,
// each step after a 1 µs host lead, alone on a device (the iterative step
// for one part, the imperative step for more). setup runs before the loop
// starts; beforeStep runs in the continuation that starts step i, ahead of
// the step's launch.
type foldCase struct {
	name       string
	parts      int
	traces     bool
	setup      func(t *testing.T, eng *simtime.Virtual, dev *Device, procs *simproc.Runtime)
	beforeStep func(i int, task *Client, record func())
}

// runFoldLoop plays tc for five steps on a lead-capable device or, with
// full, on a FullRebalance one, with the sentinel queued first when
// sentinel is set, and drains the engine. Part ends are observed through
// the part source, as the device calls it where it relaunches in place.
func runFoldLoop(t *testing.T, tc foldCase, full, sentinel bool) foldLoop {
	t.Helper()
	const steps = 5
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: !tc.traces, FullRebalance: full, ResidencyTax: DefaultResidencyTax})
	task := mustClient(t, dev, ClientConfig{Name: "task"})
	if sentinel {
		eng.ScheduleBy(simtime.OwnerOther, foldSentinel, func() {})
	}
	if tc.setup != nil {
		tc.setup(t, eng, dev, procs)
	}
	var run foldLoop
	folds := dev.FusedFolds()
	record := func() {
		run.ends = append(run.ends, foldEnd{eng.Now(), dev.FusedFolds() != folds})
		folds = dev.FusedFolds()
	}
	src := &stepParts{spec: KernelSpec{Name: "part", Demand: 0.55, Weight: 0.3}, dur: 4 * time.Microsecond, onNext: record}
	task.SetPartSource(src)
	procs.SpawnInline("steps", func(p *simproc.Process) {
		var k func(any)
		step := func() {
			if tc.beforeStep != nil {
				tc.beforeStep(run.steps, task, record)
			}
			src.left, src.spec.Duration = tc.parts-1, src.dur
			task.ExecLeadThen(p, &src.spec, time.Microsecond, k)
		}
		k = func(res any) {
			if res != nil {
				t.Errorf("%s: step %d failed: %v", tc.name, run.steps, res)
				p.Exit(nil)
				return
			}
			if spec := src.NextPart(); spec != nil {
				task.ExecThen(p, spec, k)
				return
			}
			record()
			if run.steps++; run.steps == steps {
				p.Exit(nil)
				return
			}
			step()
		}
		step()
	})
	eng.MustDrain(1 << 20)
	run.kernels, run.work, run.folds = dev.KernelsCompleted(), dev.WorkDone(), dev.FusedFolds()
	run.hits, run.misses = dev.ShareCacheStats()
	run.unmatured, run.inPlace = dev.Shortcuts()
	run.dispatchedBy, run.foldedBy = eng.DispatchedBy(), eng.FoldedBy()
	for _, n := range run.foldedBy {
		run.engFolded += n
	}
	return run
}

// instants are the ends' instants, without the folded flags.
func (r foldLoop) instants() []time.Duration {
	at := make([]time.Duration, len(r.ends))
	for i, e := range r.ends {
		at[i] = e.at
	}
	return at
}

// checkFoldLoop runs tc on the three arms — lead-capable beside the sentinel,
// lead-capable without it, FullRebalance beside it — and checks what every
// case must hold: the same kernel ends as the reference, the same steps,
// kernels, work, shortcut and share-cache counts with and without the
// sentinel, folds counted alike by the device and the engine, each moved from
// the dispatches of its owner, none without the sentinel or on the
// reference. It returns the lead-capable run beside the sentinel.
func checkFoldLoop(t *testing.T, tc foldCase) foldLoop {
	t.Helper()
	fold, plain, ref := runFoldLoop(t, tc, false, true), runFoldLoop(t, tc, false, false), runFoldLoop(t, tc, true, true)
	if !slices.Equal(fold.instants(), ref.instants()) || !slices.Equal(plain.instants(), ref.instants()) {
		t.Errorf("%s: kernel ends diverge\nbeside the sentinel %v\nwithout it          %v\nreference           %v",
			tc.name, fold.instants(), plain.instants(), ref.instants())
	}
	// A setup may run kernels the reference runs only after the loop (a
	// held lead's): the counters then match the loop with an empty queue.
	if fold.steps != ref.steps || tc.setup == nil && (fold.kernels != ref.kernels || fold.work != ref.work ||
		fold.hits != ref.hits || fold.misses != ref.misses) {
		t.Errorf("%s: %d steps, %d kernels, work %v, share cache %d/%d; reference %d, %d, %v, %d/%d",
			tc.name, fold.steps, fold.kernels, fold.work, fold.hits, fold.misses, ref.steps, ref.kernels, ref.work, ref.hits, ref.misses)
	}
	if fold.steps != plain.steps || fold.kernels != plain.kernels || fold.work != plain.work || fold.hits != plain.hits ||
		fold.misses != plain.misses || fold.unmatured != plain.unmatured || fold.inPlace != plain.inPlace {
		t.Errorf("%s: %d steps, %d kernels, work %v, share cache %d/%d, shortcuts %d/%d beside the sentinel; %d, %d, %v, %d/%d, %d/%d without it",
			tc.name, fold.steps, fold.kernels, fold.work, fold.hits, fold.misses, fold.unmatured, fold.inPlace,
			plain.steps, plain.kernels, plain.work, plain.hits, plain.misses, plain.unmatured, plain.inPlace)
	}
	if fold.folds != fold.engFolded {
		t.Errorf("%s: the device folded %d completions, the engine counts %d", tc.name, fold.folds, fold.engFolded)
	}
	for o := range simtime.NumOwners {
		// The sentinel is one more dispatch of OwnerOther.
		want := plain.dispatchedBy[o]
		if simtime.Owner(o) == simtime.OwnerOther {
			want++
		}
		if got := fold.dispatchedBy[o] + fold.foldedBy[o]; got != want {
			t.Errorf("%s: owner %v dispatched %d and folded %d beside the sentinel, dispatched %d without it",
				tc.name, simtime.Owner(o), fold.dispatchedBy[o], fold.foldedBy[o], plain.dispatchedBy[o])
		}
	}
	if plain.folds != 0 || ref.folds != 0 || ref.engFolded != 0 {
		t.Errorf("%s: %d folds without the sentinel, %d on the reference", tc.name, plain.folds, ref.folds)
	}
	return fold
}

// TestLoneStepsFoldBesideSentinel runs the iterative and the imperative step
// loop alone on a device beside a far-future sentinel: every completion after
// the first one is folded into the completion before it, so the five steps
// dispatch one completion, and they match the FullRebalance reference and the
// same loop with an empty queue, which folds nothing.
func TestLoneStepsFoldBesideSentinel(t *testing.T) {
	for _, parts := range []int{1, 3} {
		tc := foldCase{name: fmt.Sprintf("%d-part steps", parts), parts: parts}
		run := checkFoldLoop(t, tc)
		if run.kernels != uint64(5*parts) || run.folds != run.kernels-1 {
			t.Errorf("%s: %d kernels, %d folded; want %d and all but the first", tc.name, run.kernels, run.folds, 5*parts)
		}
		for i, e := range run.ends {
			if e.folded != (i > 0) {
				t.Errorf("%s: end %d at %v folded %v", tc.name, i, e.at, e.folded)
			}
		}
	}
}

// TestFoldKeepsTimerPath pins what keeps a lone completion on the timer path
// beside the sentinel: a kernel fault armed on the device (for another
// client), another client's lead held by a SIGTSTP, a device that records
// series, and a kernel queued on the step's stream ahead of its lead, which
// holds the lead's launch behind it. The ends still match the reference.
func TestFoldKeepsTimerPath(t *testing.T) {
	const ms = time.Millisecond
	plain := KernelSpec{Name: "plain", Duration: 2 * time.Microsecond, Demand: 0.5}
	for _, parts := range []int{1, 3} {
		for _, tc := range []foldCase{
			{name: "a fault armed for another client", setup: func(_ *testing.T, _ *simtime.Virtual, dev *Device, _ *simproc.Runtime) {
				dev.InjectKernelFault("other")
			}},
			{name: "another client's lead held", setup: func(t *testing.T, _ *simtime.Virtual, dev *Device, procs *simproc.Runtime) {
				held := mustClient(t, dev, ClientConfig{Name: "held"})
				procs.SpawnInline("held", func(p *simproc.Process) {
					held.ExecLeadThen(p, &KernelSpec{Name: "held", Duration: ms}, ms, func(any) { p.Exit(nil) })
				})
				held.HoldLead()
			}},
			{name: "series recorded", traces: true},
			{name: "a kernel queued ahead of the step", beforeStep: func(i int, task *Client, record func()) {
				if i == 2 {
					_ = task.Launch(&plain, func(error) { record() })
				}
			}},
		} {
			tc.parts = parts
			tc.name = fmt.Sprintf("%s, %d-part steps", tc.name, parts)
			run := checkFoldLoop(t, tc)
			if tc.beforeStep == nil {
				if run.folds != 0 {
					t.Errorf("%s: %d completions folded, want none", tc.name, run.folds)
				}
				continue
			}
			// Step 2's first kernel queues behind the plain one, whose
			// completion starts it: neither completion folds, the rest do.
			for i, e := range run.ends {
				blocked := i == 0 || i == 2*parts || i == 2*parts+1
				if e.folded == blocked {
					t.Errorf("%s: end %d at %v folded %v", tc.name, i, e.at, e.folded)
				}
			}
		}
	}
}

// TestFoldYieldsToEventAtItsInstant queues one event exactly at the second
// completion of a lone iterative step loop, and then the same event 1 ns
// later. At the instant the event runs first, as it would ahead of the armed
// completion, and nothing folds; a nanosecond later the completion folds
// into the one before it and the event runs after it. Every later completion
// finds the queue empty and is dispatched.
func TestFoldYieldsToEventAtItsInstant(t *testing.T) {
	const step = 31 * time.Microsecond // a 1 µs lead, a 30 µs kernel
	for _, offset := range []time.Duration{0, 1} {
		eng, dev := loneLeadRig(t, time.Microsecond)
		var seen uint64
		eng.ScheduleBy(simtime.OwnerOther, 2*step+offset, func() { seen = dev.KernelsCompleted() })
		eng.RunUntil(5 * step)
		want, folds := uint64(1), uint64(0)
		if offset > 0 {
			want, folds = 2, 1
		}
		if seen != want || dev.FusedFolds() != folds || dev.KernelsCompleted() != 5 {
			t.Errorf("event at 2 steps + %v: it saw %d kernels completed, %d folds, %d kernels by 5 steps; want %d, %d, 5",
				offset, seen, dev.FusedFolds(), dev.KernelsCompleted(), want, folds)
		}
	}
}

// TestFoldStopsAtHorizon runs a lone iterative step loop beside the sentinel
// to a series of horizons, on step boundaries and between them: every
// completion due by the horizon runs, none after it, and the clock stops at
// the horizon exactly. On a Wall, a Do sees every completion it ran at or
// before its own instant.
func TestFoldStopsAtHorizon(t *testing.T) {
	const step = 31 * time.Microsecond
	eng, dev := loneLeadRig(t, time.Microsecond)
	eng.ScheduleBy(simtime.OwnerOther, foldSentinel, func() {})
	for _, until := range []time.Duration{step - 1, step, 3*step + 7, 10 * step, 10*step + 1, 40 * step} {
		eng.RunUntil(until)
		if eng.Now() != until || dev.KernelsCompleted() != uint64(until/step) {
			t.Errorf("RunUntil(%v): clock at %v with %d kernels completed, want %v and %d",
				until, eng.Now(), dev.KernelsCompleted(), until, until/step)
		}
	}
	if dev.FusedFolds() == 0 {
		t.Error("no completion folded")
	}

	w := simtime.NewWall()
	var start time.Duration
	var ends []time.Duration
	stop := false
	w.Do(func() {
		eng := w.Engine()
		start = eng.Now()
		eng.ScheduleBy(simtime.OwnerOther, foldSentinel, func() {})
		dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true})
		c := mustClient(t, dev, ClientConfig{Name: "task"})
		spec := &KernelSpec{Name: "step", Duration: 30 * time.Microsecond}
		simproc.NewRuntime(eng).SpawnInline("steps", func(p *simproc.Process) {
			var k func(any)
			k = func(any) {
				if ends = append(ends, eng.Now()); stop {
					p.Exit(nil)
					return
				}
				c.ExecLeadThen(p, spec, time.Microsecond, k)
			}
			c.ExecLeadThen(p, spec, time.Microsecond, k)
		})
	})
	for range 3 {
		time.Sleep(2 * time.Millisecond)
		w.Do(func() {
			now := w.Engine().Now()
			if n := len(ends); n == 0 || ends[n-1] > now || n != int((now-start)/step) {
				t.Errorf("Do at %v: %d completions ran, the last at %v", now, n, ends[max(n-1, 0):])
			}
		})
	}
	w.Do(func() { stop = true })
}

// TestFusedLoneStepAllocFree pins BenchmarkFusedLoneStep at 0 allocs/op.
func TestFusedLoneStepAllocFree(t *testing.T) {
	const step = 31 * time.Microsecond
	eng, dev := loneLeadRig(t, time.Microsecond)
	eng.ScheduleBy(simtime.OwnerOther, foldSentinel, func() {})
	eng.RunFor(64 * step)
	folds := dev.FusedFolds()
	allocs := testing.AllocsPerRun(100, func() { eng.RunFor(64 * step) })
	if allocs != 0 {
		t.Fatalf("64 folded lone steps allocate %.2f objects/op, want 0", allocs)
	}
	if dev.FusedFolds() == folds {
		t.Fatal("the pin folded no completion")
	}
}
