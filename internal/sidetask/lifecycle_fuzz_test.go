package sidetask

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"freeride/internal/container"
	"freeride/internal/model"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// fuzzOp is one scripted stimulus of FuzzLifecycleSubstratesAgree.
type fuzzOp struct {
	at     time.Duration
	kind   int           // index into fuzzKinds
	bubble time.Duration // Start only: BubbleEnd - at
	// late schedules the op from an event 1ns before at, so it sorts after
	// every engine event already due at its instant — a host lead's wake
	// included — instead of before them.
	late bool
}

// fuzzKinds names the script alphabet; a kind occupies as many slots as its
// weight in the draw.
var fuzzKinds = []string{
	"init", "start", "start", "start", "start", "pause", "pause",
	"sigtstp", "sigtstp", "sigcont", "sigcont", "sigcont", "stop", "fault",
}

// fuzzGrid is the step-boundary grid: every phase of fuseProfile lasts a
// multiple of it, so with no step jitter an op drawn on it from a start drawn
// on it lands exactly on a phase boundary — a host lead's leadUntil, a
// kernel's completion — whenever one is due there.
const fuzzGrid = 10 * time.Millisecond

// fuzzScript draws a command script from seed: an early Init so most scripts
// get somewhere, then anything — a quarter of it at nanosecond-granular
// instants, which practically never meet a phase boundary, the rest on
// fuzzGrid, where ties with the substrate's own events are common (about a
// third of the jitter-free scripts have one) — and a final Stop with
// the worker's grace kill behind it. The grid and late draws come from a
// second source, so an op left off the grid keeps the instant, kind and
// bubble the corpus's older seeds were found with.
func fuzzScript(seed int64) []fuzzOp {
	rng := rand.New(rand.NewSource(seed))
	bias := rand.New(rand.NewSource(^seed))
	script := []fuzzOp{{at: 1 + time.Duration(rng.Int63n(int64(400*time.Millisecond)))}}
	for n := 3 + rng.Intn(12); n > 0; n-- {
		op := fuzzOp{
			at:     1 + time.Duration(rng.Int63n(int64(1500*time.Millisecond))),
			kind:   rng.Intn(len(fuzzKinds)),
			bubble: time.Duration(rng.Int63n(int64(400 * time.Millisecond))),
			late:   bias.Intn(2) == 0,
		}
		if bias.Intn(4) != 0 {
			op.at = op.at.Truncate(fuzzGrid) + fuzzGrid
			op.bubble = op.bubble.Truncate(fuzzGrid)
		}
		script = append(script, op)
	}
	return script
}

// runFuzzArm plays script against one harness on one substrate.
func runFuzzArm(t *testing.T, mode Mode, jitter float64, sub midStepSubstrate, script []fuzzOp) midStepResult {
	t.Helper()
	eng := simtime.NewVirtual()
	dev := substrateDevice(t, eng, sub)
	ctrs := container.NewRuntime(simproc.NewRuntime(eng))
	prof := fuseProfile
	prof.StepJitter = jitter
	h := NewIterativeHarness("fuzz", prof, fuseStepper{}, 1)
	if mode == ModeImperative {
		h = NewImperativeHarness("fuzz", prof, &imperativeAdapter{inner: fuseStepper{}}, 1)
	}
	res := midStepResult{exitAt: -1}
	h.SetStateListener(func(s State) {
		res.events = append(res.events, stateEvent{State: s, At: eng.Now()})
	})
	cont := runOn(t, ctrs, container.Spec{Name: "fuzz", Device: dev, GPUMemLimit: 2 * model.GiB}, h, sub)
	cont.Process().OnExit(func(err error) {
		res.exitAt = eng.Now()
		res.exitErr = err
	})

	for _, op := range script {
		var fn func()
		switch fuzzKinds[op.kind] {
		case "init":
			fn = func() { h.Deliver(Command{Transition: TransitionInit}) }
		case "start":
			fn = func() { h.Deliver(Command{Transition: TransitionStart, BubbleEnd: op.at + op.bubble}) }
		case "pause":
			fn = func() { h.Deliver(Command{Transition: TransitionPause}) }
		case "sigtstp":
			fn = cont.Stop
		case "sigcont":
			fn = cont.Cont
		case "stop":
			fn = func() { h.Deliver(Command{Transition: TransitionStop}) }
		case "fault":
			fn = func() { dev.InjectKernelFault("") }
		}
		if op.late {
			eng.Schedule(op.at-1, "op-arm", func() { eng.ScheduleDetached(1, "op", fn) })
		} else {
			eng.Schedule(op.at, "op", fn)
		}
	}
	eng.Schedule(1600*time.Millisecond+7, "op", func() {
		cont.Cont()
		h.Deliver(Command{Transition: TransitionStop})
	})
	eng.Schedule(1700*time.Millisecond+11, "op", cont.Kill)

	for eng.Step() {
	}
	res.c = h.Counters()
	res.mem = dev.MemUsed()
	return res
}

// FuzzLifecycleSubstratesAgree is the differential behind the package's one
// rule (decisions live on Harness, a substrate only blocks) and behind the
// host lead: a seeded script of commands, signals and kernel faults produces
// the same state transitions at the same instants, the same counters, device
// memory, exit instant and exit error on all four arms — the goroutine shell
// and the event loop, each over a device that can lead and one that cannot —
// in both interfaces, with step jitter on and off. With jitter off, grid ops
// land exactly on step boundaries, scheduled before or after the events due
// there; such a tie resolves in the engine's order on every arm — except
// failedLeadTie's, which is left uncompared.
func FuzzLifecycleSubstratesAgree(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		script := fuzzScript(seed)
		for _, mode := range []Mode{ModeIterative, ModeImperative} {
			for _, jitter := range []float64{0, 0.3} {
				ground := runFuzzArm(t, mode, jitter, subShellUnfused, script)
				if failedLeadTie(script, ground) {
					continue
				}
				for _, sub := range allSubstrates[1:] {
					got := runFuzzArm(t, mode, jitter, sub, script)
					compareMidStepArms(t, fmt.Sprintf("seed %d, %v, jitter %v: %v vs %v",
						seed, mode, jitter, subShellUnfused, sub), ground, got)
				}
			}
		}
	})
}

// failedLeadTie reports the one tie the host lead does not resolve as the
// two-event form does: the step's launch fails on an injected kernel fault
// at the end of its host phase, and a SIGTSTP lands at that instant behind
// the phase's end. The two-event form hands the failure to the process inside
// the host sleep's wake, ahead of the signal, so the task fails at once. A
// lead fails at its lazy maturation, which the signal's hold itself
// triggers, and delivers the failure as a new event of the instant — to a
// process the signal has already stopped, so the task fails at the next
// SIGCONT. ROADMAP ("Findings on record") keeps it as unverified; the
// corpus's sigtstp-on-failed-lead input is a script with it.
func failedLeadTie(script []fuzzOp, ground midStepResult) bool {
	if !errors.Is(ground.exitErr, simgpu.ErrInjectedFault) {
		return false
	}
	for _, op := range script {
		if fuzzKinds[op.kind] == "sigtstp" && op.late && op.at == ground.exitAt {
			return true
		}
	}
	return false
}

// TestLeadUntilTies hand-builds the ties a host lead must resolve in the
// engine's order: a SIGTSTP, a Pause and a kernel fault landing exactly on
// the first step's leadUntil (the step starts at 300ms; its 50ms host phase
// ends at 350ms). Each is scheduled once before the lead starts — its event
// sorts ahead of the host phase's end — and once after, from an event at
// 350ms-1ns, so it sorts behind. A Pause follows at 360ms and a SIGCONT at
// 400ms. All four arms must agree with the shell's two-event form, and where
// the order changes what the two-event form does, the two orders must differ
// there too, so the tie is not inert.
func TestLeadUntilTies(t *testing.T) {
	kind := func(name string) int { return slices.Index(fuzzKinds, name) }
	for _, tc := range []struct {
		op     string
		mode   Mode
		differ bool // the two orders must diverge on the ground truth
	}{
		// Ahead: the host sleep's wake is deferred, so the launch waits for
		// the SIGCONT and the step ends at 420ms. Behind: the kernel launched
		// at 350ms and runs through the stop; its completion waits for the
		// SIGCONT, and the step ends at 400ms. The Pause shows the instant.
		{"sigtstp", ModeIterative, true},
		{"sigtstp", ModeImperative, false},
		// The Pause waits in the inbox until the step ends either way.
		{"pause", ModeIterative, false},
		// Ahead: the step's launch takes the fault. Behind: the launch went
		// first, and the fault waits for the next one — none before the
		// Pause under the iterative interface, the second kernel part under
		// the imperative one.
		{"fault", ModeIterative, true},
		{"fault", ModeImperative, true},
	} {
		var grounds [2]midStepResult
		for i, late := range []bool{false, true} {
			script := []fuzzOp{
				{at: 200 * time.Millisecond, kind: kind("init")},
				{at: 300 * time.Millisecond, kind: kind("start"), bubble: 500 * time.Millisecond},
				{at: 350 * time.Millisecond, kind: kind(tc.op), late: late},
				{at: 360 * time.Millisecond, kind: kind("pause")},
				{at: 400 * time.Millisecond, kind: kind("sigcont")},
			}
			what := fmt.Sprintf("%s, %v, late %v", tc.op, tc.mode, late)
			grounds[i] = runFuzzArm(t, tc.mode, 0, subShellUnfused, script)
			if grounds[i].c.Steps == 0 && grounds[i].exitErr == nil {
				t.Fatalf("%s: the script ran no step", what)
			}
			for _, sub := range allSubstrates[1:] {
				got := runFuzzArm(t, tc.mode, 0, sub, script)
				compareMidStepArms(t, fmt.Sprintf("%s: %v vs %v", what, subShellUnfused, sub), grounds[i], got)
			}
		}
		if tc.differ && reflect.DeepEqual(grounds[0], grounds[1]) {
			t.Errorf("%s, %v: both orders of the tie give the same run — the tie is inert", tc.op, tc.mode)
		}
	}
}
