package sidetask

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"freeride/internal/container"
	"freeride/internal/model"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// Property: under the iterative interface, no side-task kernel ever runs
// past bubbleEnd + the worst-case jitter overrun of a single step. This is
// the paper's program-directed execution-time limit (§4.5): the interface
// refuses to start a step that does not fit the remaining bubble, so only
// jitter on an already-admitted step can leak past the boundary.
func TestProgramDirectedLimitProperty(t *testing.T) {
	f := func(seed int64, bubbleMsRaw uint16, jitterRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bubbleDur := time.Duration(bubbleMsRaw%1500+40) * time.Millisecond
		jitter := float64(jitterRaw%30) / 100.0

		profile := model.ResNet18
		profile.StepJitter = jitter
		profile.CreateTime = 50 * time.Millisecond
		profile.InitTime = 20 * time.Millisecond

		eng := simtime.NewVirtual()
		procs := simproc.NewRuntime(eng)
		dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu"})
		ctrs := container.NewRuntime(procs)
		h, err := NewBuiltin(profile, ModeIterative, WorkNone, rng.Int63())
		if err != nil {
			return false
		}
		if _, err := ctrs.Run(container.Spec{Name: "t", Device: dev}, h.Run); err != nil {
			return false
		}
		eng.RunUntil(time.Second)
		eng.Schedule(0, "init", func() { h.Deliver(Command{Transition: TransitionInit}) })
		eng.RunFor(500 * time.Millisecond)
		if h.State() != StatePaused {
			return false
		}
		bubbleStart := eng.Now()
		bubbleEnd := bubbleStart + bubbleDur
		eng.Schedule(0, "start", func() {
			h.Deliver(Command{Transition: TransitionStart, BubbleEnd: bubbleEnd})
		})
		// Pause at the bubble end, as the manager would.
		eng.Schedule(bubbleDur, "pause", func() { h.Deliver(Command{Transition: TransitionPause}) })
		eng.RunUntil(bubbleEnd + 10*time.Second)

		// The worst a step admitted at the last admissible instant can do:
		// its jittered duration exceeds the mean estimate by jitter%.
		worstOverrun := time.Duration(float64(profile.StepTime) * jitter)
		idleBy := bubbleEnd + worstOverrun + time.Millisecond
		for _, p := range dev.Occupancy().Points() {
			if p.T >= idleBy && p.V > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: step counters are consistent — KernelTime+HostTime never
// exceeds total running time, and steps only increase.
func TestCounterConsistencyProperty(t *testing.T) {
	f := func(seed int64, burstRaw uint8) bool {
		bursts := int(burstRaw%4) + 1
		eng := simtime.NewVirtual()
		procs := simproc.NewRuntime(eng)
		dev := simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: "gpu"})
		ctrs := container.NewRuntime(procs)
		profile := model.PageRank
		profile.CreateTime = 10 * time.Millisecond
		profile.InitTime = 10 * time.Millisecond
		h, err := NewBuiltin(profile, ModeIterative, WorkNone, seed)
		if err != nil {
			return false
		}
		if _, err := ctrs.Run(container.Spec{Name: "t", Device: dev}, h.Run); err != nil {
			return false
		}
		eng.RunUntil(100 * time.Millisecond)
		eng.Schedule(0, "init", func() { h.Deliver(Command{Transition: TransitionInit}) })
		eng.RunFor(100 * time.Millisecond)

		var prevSteps uint64
		var runningTotal time.Duration
		for i := 0; i < bursts; i++ {
			start := eng.Now()
			end := start + 200*time.Millisecond
			eng.Schedule(0, "start", func() {
				h.Deliver(Command{Transition: TransitionStart, BubbleEnd: end})
			})
			eng.Schedule(200*time.Millisecond, "pause", func() {
				h.Deliver(Command{Transition: TransitionPause})
			})
			eng.RunFor(400 * time.Millisecond)
			runningTotal += 200 * time.Millisecond

			c := h.Counters()
			if c.Steps < prevSteps {
				return false
			}
			prevSteps = c.Steps
			if c.KernelTime+c.HostTime > runningTotal+profile.StepTime {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
