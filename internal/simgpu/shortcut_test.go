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
// perturbations; launch(i, d) launches a kernel of d on the i-th of two other
// clients. The task's first step begins at 0.
type shortcutCase struct {
	name  string
	lead  time.Duration
	parts int
	dur   time.Duration
	stim  func(eng *simtime.Virtual, p *simproc.Process, dev *Device, launch func(i int, d time.Duration))
	// unmatured and inPlace are the shortcuts the lead-capable device must
	// take under PolicyMPS ([0]) and PolicyTimeSlice ([1]).
	unmatured, inPlace [2]uint64
}

// shortcutRun is one arm's observable surface: the task's part ends, the
// other clients' kernel ends, the device's work and kernel counts and its
// shortcut counts.
type shortcutRun struct {
	ends          []partEnd
	others        []time.Duration
	work          float64
	kernels       uint64
	unmatured, in uint64
}

// runShortcutArm plays tc under policy on a lead-capable device or, with full,
// on a FullRebalance one, where a lead is the process's own sleep and every
// part a plain launch from the completion's continuation. Three steps run;
// the process observes every part boundary through its part source, which the
// device calls in place of the continuation where it relaunches in place, at
// the same instant, and each step's last kernel's start at the step's end. A
// SIGTSTP holds a pending lead, as the side-task harness arranges.
func runShortcutArm(t *testing.T, policy Policy, full bool, tc shortcutCase) shortcutRun {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", Policy: policy, NoTraces: true, FullRebalance: full, ResidencyTax: DefaultResidencyTax})
	// The task's client sits between the others in client order.
	others := []*Client{mustClient(t, dev, ClientConfig{Name: "other0"}), nil}
	task := mustClient(t, dev, ClientConfig{Name: "task"})
	others[1] = mustClient(t, dev, ClientConfig{Name: "other1"})
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
	tc.stim(eng, p, dev, func(i int, d time.Duration) {
		_ = others[i].Launch(&KernelSpec{Name: "o", Duration: d, Demand: 0.5, Weight: 0.5 + float64(i)}, func(error) {
			run.others = append(run.others, eng.Now())
		})
	})
	eng.MustDrain(1 << 20)
	run.work, run.kernels = dev.WorkDone(), dev.KernelsCompleted()
	run.unmatured, run.in = dev.Shortcuts()
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

// TestShortcutsMatchFullRebalance pins both completion shortcuts — the lead
// retired without maturing, alone or beside running kernels, and the step
// part relaunched in place — against the FullRebalance reference, under both
// policies: the same part ends at the same instants, with the same starts,
// failures, work done and kernel count, and the other clients' kernels end at
// the same instants, in the scenarios where a shortcut that trusted less than
// it checks would go wrong. Each case takes exactly the shortcuts it counts
// on the lead-capable device, and the reference takes none.
func TestShortcutsMatchFullRebalance(t *testing.T) {
	const ms = time.Millisecond
	var cases []shortcutCase
	for _, parts := range []int{1, 3} {
		// counts is one shortcut's count with one-part and three-part steps
		// under PolicyMPS, then under PolicyTimeSlice; n is the same count
		// under both policies.
		counts := func(mps1, mps3, ts1, ts3 uint64) [2]uint64 {
			if parts == 1 {
				return [2]uint64{mps1, ts1}
			}
			return [2]uint64{mps3, ts3}
		}
		n := func(one, three uint64) [2]uint64 { return counts(one, three, one, three) }
		// Every part after a step's first, with none, or one, left to the
		// round trip.
		all, allBut1 := n(0, 6), n(0, 5)
		cases = append(cases,
			// The fault arms the lead's timer at leadUntil; the other
			// client's launch takes it and refreshes no lead. The lead then
			// matures at 10ms with all its work ahead: not a completion.
			shortcutCase{name: "fault taken by another client in the host phase", lead: 10 * ms, parts: parts, dur: 5 * ms,
				stim: func(eng *simtime.Virtual, _ *simproc.Process, dev *Device, launch func(int, time.Duration)) {
					at(eng, 4*ms, false, func() { dev.InjectKernelFault("") })
					at(eng, 6*ms, false, func() { launch(0, ms) })
				}, unmatured: n(2, 2), inPlace: all},
			// A fault armed for the task at a part boundary fails the next
			// launch: no relaunch in place there, and the task ends.
			shortcutCase{name: "fault at a part boundary", lead: 10 * ms, parts: parts, dur: 5 * ms,
				stim: func(eng *simtime.Virtual, _ *simproc.Process, dev *Device, _ func(int, time.Duration)) {
					at(eng, 20*ms, false, func() { dev.InjectKernelFault("") })
				}, unmatured: n(1, 1), inPlace: n(0, 1)},
		)
		for _, late := range []bool{false, true} {
			// pick is a count ahead of the stimulus's event, or behind it.
			pick := func(ahead, behind [2]uint64) [2]uint64 {
				if late {
					return behind
				}
				return ahead
			}
			cases = append(cases,
				// Ahead of the wake the hold freezes the host phase; behind
				// it the lead matures and runs through the stop.
				shortcutCase{name: fmt.Sprintf("SIGTSTP at leadUntil, late %v", late), lead: 10 * ms, parts: parts, dur: 5 * ms,
					stim: func(eng *simtime.Virtual, p *simproc.Process, _ *Device, _ func(int, time.Duration)) {
						at(eng, 10*ms, late, func() { p.Signal(simproc.SigStop) })
						at(eng, 30*ms, false, func() { p.Signal(simproc.SigCont) })
					}, unmatured: n(2, 2), inPlace: pick(all, allBut1)},
				// A stop at a part boundary defers the delivery: no
				// relaunch in place there. Ahead of the completion, the hold
				// matures the lead.
				shortcutCase{name: fmt.Sprintf("SIGTSTP at a part boundary, late %v", late), lead: 10 * ms, parts: parts, dur: 5 * ms,
					stim: func(eng *simtime.Virtual, p *simproc.Process, _ *Device, _ func(int, time.Duration)) {
						at(eng, 15*ms, late, func() { p.Signal(simproc.SigStop) })
						at(eng, 30*ms, false, func() { p.Signal(simproc.SigCont) })
					}, unmatured: pick(n(2, 2), n(2, 3)), inPlace: allBut1},
				// Ahead of the lead's completion the launch matures the lead;
				// behind it the lead retires unmatured, alone.
				shortcutCase{name: fmt.Sprintf("another client launches at the completion, late %v", late), lead: 10 * ms, parts: parts, dur: 5 * ms,
					stim: func(eng *simtime.Virtual, _ *simproc.Process, _ *Device, launch func(int, time.Duration)) {
						at(eng, 15*ms, late, func() { launch(0, 2*ms) })
						at(eng, 35*ms, late, func() { launch(0, 3*ms) })
					}, unmatured: pick(n(2, 1), n(3, 2)), inPlace: all},
				// The other client's kernel runs across the whole first
				// kernel: the lead is the only lead but not alone, so it
				// retires unmatured beside the other's kernel, which it slows
				// with the residency tax it brings, and the parts after it
				// relaunch in place beside that kernel. Under time-slicing
				// the other's kernel ends inside the first lead's, and that
				// completion matures the lead.
				shortcutCase{name: fmt.Sprintf("another client's kernel spans the lead's, late %v", late), lead: 10 * ms, parts: parts, dur: 5 * ms,
					stim: func(eng *simtime.Virtual, _ *simproc.Process, _ *Device, launch func(int, time.Duration)) {
						at(eng, 8*ms, late, func() { launch(0, 12*ms) })
					}, unmatured: counts(3, 3, 2, 2), inPlace: all},
				// Two other clients' kernels, of different weights, run
				// across the lead and its kernel: the lead enters the set
				// between them in client order. Under time-slicing their
				// kernels end inside a lead's, maturing it, once or twice.
				shortcutCase{name: fmt.Sprintf("two other clients' kernels span the lead's, late %v", late), lead: 10 * ms, parts: parts, dur: 5 * ms,
					stim: func(eng *simtime.Virtual, _ *simproc.Process, _ *Device, launch func(int, time.Duration)) {
						at(eng, 8*ms, late, func() { launch(0, 12*ms) })
						at(eng, 9*ms, late, func() { launch(1, 30*ms) })
					}, unmatured: counts(3, 3, 1, 2), inPlace: all},
			)
		}
		cases = append(cases,
			// One long kernel spans all three steps: every lead retires
			// unmatured beside it, and every part relaunches in place
			// beside it.
			shortcutCase{name: "a part relaunched in place beside a running kernel", lead: ms, parts: parts, dur: 2 * ms,
				stim: func(eng *simtime.Virtual, _ *simproc.Process, _ *Device, launch func(int, time.Duration)) {
					at(eng, 0, false, func() { launch(1, 100*ms) })
				}, unmatured: n(3, 3), inPlace: all},
			shortcutCase{name: "zero-length kernels", lead: 10 * ms, parts: parts,
				stim:      func(*simtime.Virtual, *simproc.Process, *Device, func(int, time.Duration)) {},
				unmatured: n(3, 3), inPlace: all},
		)
	}
	for _, policy := range []Policy{PolicyMPS, PolicyTimeSlice} {
		for _, tc := range cases {
			what := fmt.Sprintf("%v: %s, %d parts", policy, tc.name, tc.parts)
			lead, ref := runShortcutArm(t, policy, false, tc), runShortcutArm(t, policy, true, tc)
			if !slices.Equal(lead.ends, ref.ends) || !slices.Equal(lead.others, ref.others) {
				t.Errorf("%s: kernel ends diverge\nlead-capable %v, other clients %v\nreference    %v, other clients %v",
					what, lead.ends, lead.others, ref.ends, ref.others)
			}
			if lead.work != ref.work || lead.kernels != ref.kernels {
				t.Errorf("%s: work %v in %d kernels, reference %v in %d", what, lead.work, lead.kernels, ref.work, ref.kernels)
			}
			i := int(policy - PolicyMPS)
			if lead.unmatured != tc.unmatured[i] || lead.in != tc.inPlace[i] {
				t.Errorf("%s: %d leads retired unmatured and %d parts relaunched in place, want %d and %d",
					what, lead.unmatured, lead.in, tc.unmatured[i], tc.inPlace[i])
			}
			if ref.unmatured != 0 || ref.in != 0 {
				t.Errorf("%s: the reference took %d unmatured and %d in-place shortcuts", what, ref.unmatured, ref.in)
			}
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
// lead-capable device: a host lead retired unmatured, then seven parts
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
