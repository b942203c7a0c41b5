package simgpu

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// stepParts is a PartSource over one step's spec: after the first kernel,
// left more of dur each. onNext, when set, runs at every part boundary.
type stepParts struct {
	spec   KernelSpec
	left   int
	dur    time.Duration
	onNext func()
}

func (s *stepParts) NextPart() *KernelSpec {
	if s.left == 0 {
		return nil
	}
	s.left--
	if s.onNext != nil {
		s.onNext()
	}
	s.spec.Duration = s.dur
	return &s.spec
}

// partEnd is one observed kernel end of runShortcutArm: the instant, the
// kernel's start (-1: not observed — a part boundary, or a failed launch) and
// whether it failed.
type partEnd struct {
	at, started time.Duration
	failed      bool
}

// shortcutCase is one scripted scenario: a task runs steps of parts kernels
// of dur each, the first after a host lead of lead, and stim schedules the
// perturbations. The task's first step begins at 0.
type shortcutCase struct {
	name  string
	lead  time.Duration
	parts int
	dur   time.Duration
	stim  func(eng *simtime.Virtual, p *simproc.Process, dev *Device, launch func(time.Duration))
	// lone and inPlace: the shortcut must engage on the lead-capable device.
	lone, inPlace bool
}

// shortcutRun is one arm's observable surface: the task's part ends, the
// other client's kernel ends, the device's work and kernel counts and its
// shortcut counts.
type shortcutRun struct {
	ends     []partEnd
	others   []time.Duration
	work     float64
	kernels  uint64
	lone, in uint64
}

// runShortcutArm plays tc on a lead-capable device or, with full, on a
// FullRebalance one, where a lead is the process's own sleep and every part a
// plain launch from the completion's continuation. Three steps run; the
// process observes every part boundary through its part source, which the
// device calls in place of the continuation where it relaunches in place, at
// the same instant, and each step's last kernel's start at the step's end. A SIGTSTP holds a pending lead, as the side-task harness
// arranges.
func runShortcutArm(t *testing.T, full bool, tc shortcutCase) shortcutRun {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true, FullRebalance: full, ResidencyTax: DefaultResidencyTax})
	task := mustClient(t, dev, ClientConfig{Name: "task"})
	other := mustClient(t, dev, ClientConfig{Name: "other"})
	var run shortcutRun
	record := func(started time.Duration, failed bool) {
		run.ends = append(run.ends, partEnd{eng.Now(), started, failed})
	}
	src := &stepParts{spec: KernelSpec{Name: "part", Demand: 0.5, Weight: 0.5}, dur: tc.dur}
	src.onNext = func() { record(-1, false) }
	task.SetPartSource(src)
	p := procs.SpawnInline("steps", func(p *simproc.Process) {
		steps := 0
		var k func(any)
		step := func() {
			src.left, src.spec.Duration = tc.parts-1, tc.dur
			task.ExecLeadThen(p, &src.spec, tc.lead, k)
		}
		k = func(res any) {
			if res == nil {
				if spec := src.NextPart(); spec != nil {
					task.ExecThen(p, spec, k)
					return
				}
			}
			// The step's last kernel is the top of the pool; a failed
			// launch retires none.
			started := time.Duration(-1)
			if res == nil {
				started = dev.kernelPool[len(dev.kernelPool)-1].started
			}
			record(started, res != nil)
			if steps++; steps == 3 || res != nil {
				p.Exit(nil)
				return
			}
			step()
		}
		step()
	})
	p.SetSignalHook(func(sig simproc.Signal) {
		if sig == simproc.SigStop {
			task.HoldLead()
		} else {
			task.ReleaseLead()
		}
	})
	tc.stim(eng, p, dev, func(d time.Duration) {
		_ = other.Launch(&KernelSpec{Name: "o", Duration: d, Demand: 0.5, Weight: 0.5}, func(error) {
			run.others = append(run.others, eng.Now())
		})
	})
	eng.MustDrain(1 << 20)
	run.work, run.kernels = dev.WorkDone(), dev.KernelsCompleted()
	run.lone, run.in = dev.Shortcuts()
	return run
}

// at schedules fn at instant when, ahead of every event the run arms there
// later; late puts it behind them instead (the host lead's wake among them),
// from an event 1ns earlier.
func at(eng *simtime.Virtual, when time.Duration, late bool, fn func()) {
	if late {
		eng.Schedule(when-1, "late", func() { eng.ScheduleDetached(1, "stim", fn) })
		return
	}
	eng.Schedule(when, "stim", fn)
}

// TestShortcutsMatchFullRebalance pins both completion shortcuts — the lone
// lead retired without maturing, the step part relaunched in place — against
// the FullRebalance reference: the same part ends at the same instants, with
// the same starts, failures, work done and kernel count, in the scenarios
// where a shortcut that trusted less than it checks would go wrong. Each
// case must engage the shortcuts it names on the lead-capable device, and
// the reference takes neither.
func TestShortcutsMatchFullRebalance(t *testing.T) {
	const ms = time.Millisecond
	var cases []shortcutCase
	for _, parts := range []int{1, 3} {
		cases = append(cases,
			// The fault arms the lead's timer at leadUntil; the other
			// client's launch takes it and refreshes no lead. The lead then
			// matures at 10ms with all its work ahead: not a completion.
			shortcutCase{name: "fault taken by another client in the host phase", lead: 10 * ms, parts: parts, dur: 5 * ms,
				stim: func(eng *simtime.Virtual, _ *simproc.Process, dev *Device, launch func(time.Duration)) {
					at(eng, 4*ms, false, func() { dev.InjectKernelFault("") })
					at(eng, 6*ms, false, func() { launch(ms) })
				}, lone: true, inPlace: parts > 1},
			// A fault armed for the task at a part boundary fails the next
			// part's launch: no relaunch in place there.
			shortcutCase{name: "fault at a part boundary", lead: 10 * ms, parts: parts, dur: 5 * ms,
				stim: func(eng *simtime.Virtual, _ *simproc.Process, dev *Device, _ func(time.Duration)) {
					at(eng, 20*ms, false, func() { dev.InjectKernelFault("") })
				}, lone: true, inPlace: parts > 1},
		)
		for _, late := range []bool{false, true} {
			cases = append(cases,
				// Ahead of the wake the hold freezes the host phase; behind
				// it the lead matures and runs through the stop.
				shortcutCase{name: fmt.Sprintf("SIGTSTP at leadUntil, late %v", late), lead: 10 * ms, parts: parts, dur: 5 * ms,
					stim: func(eng *simtime.Virtual, p *simproc.Process, _ *Device, _ func(time.Duration)) {
						at(eng, 10*ms, late, func() { p.Signal(simproc.SigStop) })
						at(eng, 30*ms, false, func() { p.Signal(simproc.SigCont) })
					}, lone: true, inPlace: parts > 1},
				// A stop at a part boundary defers the delivery: no
				// relaunch in place there.
				shortcutCase{name: fmt.Sprintf("SIGTSTP at a part boundary, late %v", late), lead: 10 * ms, parts: parts, dur: 5 * ms,
					stim: func(eng *simtime.Virtual, p *simproc.Process, _ *Device, _ func(time.Duration)) {
						at(eng, 15*ms, late, func() { p.Signal(simproc.SigStop) })
						at(eng, 30*ms, false, func() { p.Signal(simproc.SigCont) })
					}, lone: true, inPlace: parts > 1},
				// Ahead of the lead's completion the launch matures the lead
				// and shares the device; behind it the lead is lone.
				shortcutCase{name: fmt.Sprintf("another client launches at the completion, late %v", late), lead: 10 * ms, parts: parts, dur: 5 * ms,
					stim: func(eng *simtime.Virtual, _ *simproc.Process, _ *Device, launch func(time.Duration)) {
						at(eng, 15*ms, late, func() { launch(2 * ms) })
						at(eng, 35*ms, late, func() { launch(3 * ms) })
					}, lone: true, inPlace: parts > 1},
				// The other client's kernel runs across the whole first
				// kernel: the lead is the only lead but not alone, so it must
				// mature, and the residency tax it brings slows the other.
				shortcutCase{name: fmt.Sprintf("another client's kernel spans the lead's, late %v", late), lead: 10 * ms, parts: parts, dur: 5 * ms,
					stim: func(eng *simtime.Virtual, _ *simproc.Process, _ *Device, launch func(time.Duration)) {
						at(eng, 8*ms, late, func() { launch(12 * ms) })
					}, lone: true, inPlace: parts > 1},
			)
		}
		cases = append(cases, shortcutCase{name: "zero-length kernels", lead: 10 * ms, parts: parts,
			stim: func(*simtime.Virtual, *simproc.Process, *Device, func(time.Duration)) {}, lone: true, inPlace: parts > 1})
	}
	for _, tc := range cases {
		what := fmt.Sprintf("%s, %d parts", tc.name, tc.parts)
		lead, ref := runShortcutArm(t, false, tc), runShortcutArm(t, true, tc)
		if !slices.Equal(lead.ends, ref.ends) || !slices.Equal(lead.others, ref.others) {
			t.Errorf("%s: kernel ends diverge\nlead-capable %v, other client %v\nreference    %v, other client %v",
				what, lead.ends, lead.others, ref.ends, ref.others)
		}
		if lead.work != ref.work || lead.kernels != ref.kernels {
			t.Errorf("%s: work %v in %d kernels, reference %v in %d", what, lead.work, lead.kernels, ref.work, ref.kernels)
		}
		if (lead.lone > 0) != tc.lone || (lead.in > 0) != tc.inPlace {
			t.Errorf("%s: %d lone leads and %d relaunches in place, want any: %v, %v", what, lead.lone, lead.in, tc.lone, tc.inPlace)
		}
		if ref.lone != 0 || ref.in != 0 {
			t.Errorf("%s: the reference took %d lone and %d in-place shortcuts", what, ref.lone, ref.in)
		}
	}
}

// imperativeStepRig is one task running eight-part steps (a 1 µs host lead,
// then eight 4 µs kernels) alone on a lead-capable device, on the event loop;
// step runs it to the end of the next step.
func imperativeStepRig(tb testing.TB) func() {
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true, ResidencyTax: DefaultResidencyTax})
	c, err := dev.NewClient(ClientConfig{Name: "task"})
	if err != nil {
		tb.Fatal(err)
	}
	src := &stepParts{spec: KernelSpec{Name: "part", Demand: 0.55, Weight: 0.3}, dur: 4 * time.Microsecond}
	c.SetPartSource(src)
	steps := 0
	procs.SpawnInline("steps", func(p *simproc.Process) {
		var k func(any)
		k = func(res any) {
			if res == nil {
				if spec := src.NextPart(); spec != nil {
					c.ExecThen(p, spec, k)
					return
				}
			}
			steps++
			src.left, src.spec.Duration = 7, src.dur
			c.ExecLeadThen(p, &src.spec, time.Microsecond, k)
		}
		k(nil)
	})
	step := func() {
		for before := steps; steps == before; {
			if !eng.Step() {
				tb.Fatal("engine ran dry")
			}
		}
	}
	return step
}

// BenchmarkImperativeStep is one eight-part step on the event loop over a
// lead-capable device: a host lead retired as a lone lead, then seven parts
// relaunched in place. One op is one step.
func BenchmarkImperativeStep(b *testing.B) {
	step := imperativeStepRig(b)
	for i := 0; i < 64; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
