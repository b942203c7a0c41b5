package sidetask

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"freeride/internal/container"
	"freeride/internal/model"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// fuzzOp is one scripted stimulus of FuzzLifecycleSubstratesAgree.
type fuzzOp struct {
	at     time.Duration
	kind   int           // index into fuzzKinds
	bubble time.Duration // Start only: BubbleEnd - at
}

// fuzzKinds names the script alphabet; a kind occupies as many slots as its
// weight in the draw.
var fuzzKinds = []string{
	"init", "start", "start", "start", "start", "pause", "pause",
	"sigtstp", "sigtstp", "sigcont", "sigcont", "sigcont", "stop", "fault",
}

// fuzzScript draws a command script from seed: an early Init so most scripts
// get somewhere, then anything at nanosecond-granular instants — the profile's
// phase boundaries sit on round instants, which a drawn one practically never
// hits — and a final Stop with the worker's grace kill behind it.
func fuzzScript(seed int64) []fuzzOp {
	rng := rand.New(rand.NewSource(seed))
	script := []fuzzOp{{at: 1 + time.Duration(rng.Int63n(int64(400*time.Millisecond)))}}
	for n := 3 + rng.Intn(12); n > 0; n-- {
		script = append(script, fuzzOp{
			at:     1 + time.Duration(rng.Int63n(int64(1500*time.Millisecond))),
			kind:   rng.Intn(len(fuzzKinds)),
			bubble: time.Duration(rng.Int63n(int64(400 * time.Millisecond))),
		})
	}
	return script
}

// runFuzzArm plays script against one harness on one substrate. tie reports
// that a second engine event shared an instant with a script op: the order of
// the two is then the substrate's to choose (see simgpu.HoldLead), and the
// arms need not agree.
func runFuzzArm(t *testing.T, mode Mode, jitter float64, sub midStepSubstrate, script []fuzzOp) (res midStepResult, tie bool) {
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
	res.exitAt = -1
	h.SetStateListener(func(s State) {
		res.events = append(res.events, stateEvent{State: s, At: eng.Now()})
	})
	spec := container.Spec{Name: "fuzz", Device: dev, GPUMemLimit: 2 * model.GiB}
	var cont *container.Container
	var err error
	if sub == subGoroutine {
		cont, err = ctrs.Run(spec, h.Run)
	} else {
		cont, err = ctrs.RunInline(spec, h.Start)
	}
	if err != nil {
		t.Fatalf("container: %v", err)
	}
	cont.Process().OnExit(func(err error) {
		res.exitAt = eng.Now()
		res.exitErr = err
	})

	opsAt := map[time.Duration]int{}
	play := func(at time.Duration, fn func()) {
		opsAt[at] = 0
		eng.Schedule(at, "op", fn)
	}
	for _, op := range script {
		switch fuzzKinds[op.kind] {
		case "init":
			play(op.at, func() { h.Deliver(Command{Transition: TransitionInit}) })
		case "start":
			play(op.at, func() { h.Deliver(Command{Transition: TransitionStart, BubbleEnd: op.at + op.bubble}) })
		case "pause":
			play(op.at, func() { h.Deliver(Command{Transition: TransitionPause}) })
		case "sigtstp":
			play(op.at, cont.Stop)
		case "sigcont":
			play(op.at, cont.Cont)
		case "stop":
			play(op.at, func() { h.Deliver(Command{Transition: TransitionStop}) })
		case "fault":
			play(op.at, func() { dev.InjectKernelFault("") })
		}
	}
	play(1600*time.Millisecond+7, func() {
		cont.Cont()
		h.Deliver(Command{Transition: TransitionStop})
	})
	play(1700*time.Millisecond+11, cont.Kill)

	for eng.Step() {
		if n, op := opsAt[eng.Now()]; op {
			opsAt[eng.Now()] = n + 1
			tie = tie || n > 0
		}
	}
	res.c = h.Counters()
	res.mem = dev.MemUsed()
	return res, tie
}

// FuzzLifecycleSubstratesAgree is the differential behind the package's one
// rule (decisions live on Harness, a substrate only blocks): a seeded script
// of commands, signals and kernel faults produces the same state transitions
// at the same instants, the same counters, device memory, exit instant and
// exit error on the goroutine shell, on the event loop over a lead-capable
// device, and on the event loop over a device that cannot lead — in both
// interfaces, with step jitter on and off.
func FuzzLifecycleSubstratesAgree(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		script := fuzzScript(seed)
		for _, mode := range []Mode{ModeIterative, ModeImperative} {
			for _, jitter := range []float64{0, 0.3} {
				ground, tie := runFuzzArm(t, mode, jitter, subGoroutine, script)
				if tie {
					t.Skip("script op tied with an engine event")
				}
				for _, sub := range []midStepSubstrate{subInlineUnfused, subInlineFused} {
					got, _ := runFuzzArm(t, mode, jitter, sub, script)
					compareMidStepArms(t, fmt.Sprintf("seed %d, %v, jitter %v: shell vs substrate %d", seed, mode, jitter, sub), ground, got)
				}
			}
		}
	})
}
