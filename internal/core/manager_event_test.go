package core

import (
	"errors"
	"testing"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/freerpc"
	"freeride/internal/model"
	"freeride/internal/sidetask"
	"freeride/internal/simtime"
)

// eventDriven runs fn as the subtest "event-driven": the ID under which the
// test floor tracks the scenarios that use it, kept so it does not change.
func eventDriven(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	t.Run("event-driven", fn)
}

// TestAdmissionAccountsForMemSlack: Algorithm 1 must admit a task only when
// the worker can honor the MPS limit MemBytes+MemSlack, and must not reject
// on exact equality (the old check was gpuMem <= MemBytes, an off-by-one
// that also ignored the slack entirely).
func TestAdmissionAccountsForMemSlack(t *testing.T) {
	const slack = int64(256 << 20)
	mem := model.ResNet18.MemBytes
	cases := []struct {
		name   string
		gpuMem int64
		slack  int64
		admit  bool
	}{
		{"exact fit, no slack", mem, 0, true},
		{"one byte short, no slack", mem - 1, 0, false},
		{"fits task but not slack", mem + slack - 1, slack, false},
		{"exact fit with slack", mem + slack, slack, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := simtime.NewVirtual()
			mgr := NewManager(eng, ManagerOptions{MemSlack: tc.slack})
			a, _ := freerpc.MemPipe(eng, 0)
			mgr.AddWorker("w0", 0, tc.gpuMem, freerpc.NewPeer(eng, a, nil))
			err := mgr.Submit(spec("t", model.ResNet18, sidetask.ModeIterative))
			if tc.admit && err != nil {
				t.Fatalf("Submit = %v, want admission", err)
			}
			if !tc.admit && !errors.Is(err, ErrRejected) {
				t.Fatalf("Submit = %v, want ErrRejected", err)
			}
		})
	}
}

// TestOutOfOrderBubbleReportsNotStarved: a far-future bubble reported before
// an already-begun one (out-of-order reports, the livemode case) must not
// block the begun bubble at the head of the queue.
func TestOutOfOrderBubbleReportsNotStarved(t *testing.T) {
	eventDriven(t, func(t *testing.T) {
		r := newRigOpts(t, 1, []int64{22 * model.GiB}, WorkerConfig{},
			ManagerOptions{Tick: time.Millisecond})
		if err := r.mgr.Submit(spec("rn18", model.ResNet18, sidetask.ModeIterative)); err != nil {
			t.Fatal(err)
		}
		r.mgr.Start()
		r.eng.RunFor(4 * time.Second) // create + init
		base := r.eng.Now()
		// Reported first: a bubble an hour out. Reported second: one that
		// has effectively begun.
		r.mgr.AddBubble(bubble.Bubble{
			Stage: 0, Start: base + time.Hour, Duration: 500 * time.Millisecond,
			MemAvailable: 22 * model.GiB,
		})
		r.mgr.AddBubble(bubble.Bubble{
			Stage: 0, Start: base + 2*time.Millisecond, Duration: 500 * time.Millisecond,
			MemAvailable: 22 * model.GiB,
		})
		r.eng.RunFor(time.Second)
		if got := r.mgr.Stats().BubblesServed; got != 1 {
			t.Fatalf("BubblesServed = %d, want 1 (begun bubble starved behind future one)", got)
		}
		h, _ := r.workers[0].Harness("rn18")
		if h.Counters().Steps == 0 {
			t.Fatal("no steps ran in the begun bubble")
		}
	})
}

// TestEventDrivenSkipsIdleTicks: Algorithm 2 has period Tick, but the
// manager runs no timer per Tick. Once the start pass on the first grid
// instant has found nothing to do, an idle manager dispatches no engine
// event at all — 10 s of engine time is 10,000 grid instants.
func TestEventDrivenSkipsIdleTicks(t *testing.T) {
	eng := simtime.NewVirtual()
	mgr := NewManager(eng, ManagerOptions{Tick: time.Millisecond})
	a, _ := freerpc.MemPipe(eng, 0)
	mgr.AddWorker("w0", 0, 22*model.GiB, freerpc.NewPeer(eng, a, nil))
	mgr.Start()
	eng.RunFor(time.Millisecond) // the start pass
	if got := eng.Dispatched(); got != 1 {
		t.Fatalf("start dispatched %d events, want the one pass over the one worker", got)
	}
	eng.RunFor(10 * time.Second)
	if got := eng.Dispatched(); got != 1 {
		t.Fatalf("idle manager dispatched %d events over 10 s, want 0", got-1)
	}
}

// TestScriptedLifecyclePinned drives a real worker through a bubble pattern
// with odd (non-grid-aligned) offsets and pins stats, counters and final
// state to the values the literal per-Tick loop produced before it was
// retired (captured on the commit that still had it; both drivers agreed).
func TestScriptedLifecyclePinned(t *testing.T) {
	type outcome struct {
		stats  ManagerStats
		steps  uint64
		kernel time.Duration
		state  sidetask.State
		ws     WorkerStats
	}
	r := newRigOpts(t, 1, []int64{22 * model.GiB}, WorkerConfig{},
		ManagerOptions{Tick: time.Millisecond})
	if err := r.mgr.Submit(spec("rn18", model.ResNet18, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.Start()
	r.eng.RunFor(4 * time.Second)
	base := r.eng.Now()
	// Odd offsets and durations: adoption and pause instants land between
	// grid points, plus one bubble shorter than a Tick (adopted on its start
	// instant, which is on the grid, and paused one Tick later) and one pair
	// back-to-back.
	script := []struct{ start, dur time.Duration }{
		{700 * time.Microsecond, 437 * time.Millisecond},
		{500 * time.Millisecond, 300 * time.Microsecond}, // sub-Tick
		{900 * time.Millisecond, 233100 * time.Microsecond},
		{1133200 * time.Microsecond, 400 * time.Millisecond}, // back-to-back
		{3 * time.Second, 512300 * time.Microsecond},
	}
	for _, b := range script {
		r.mgr.AddBubble(bubble.Bubble{
			Stage: 0, Start: base + b.start, Duration: b.dur,
			MemAvailable: 22 * model.GiB,
		})
	}
	r.eng.RunFor(5 * time.Second)
	h, ok := r.workers[0].Harness("rn18")
	if !ok {
		t.Fatal("task missing")
	}
	c := h.Counters()
	got := outcome{
		stats:  r.mgr.Stats(),
		steps:  c.Steps,
		kernel: c.KernelTime,
		state:  h.State(),
		ws:     r.workers[0].Stats(),
	}
	want := outcome{
		stats: ManagerStats{
			Submitted: 1, BubblesAdded: 5, BubblesServed: 5, RPCs: 12,
			BubbleTimeTotal:  1582700 * time.Microsecond,
			BubbleTimeServed: 1579700 * time.Microsecond,
		},
		steps:  49,
		kernel: 1499446725,
		state:  sidetask.StatePaused,
		ws:     WorkerStats{Created: 1, Inits: 1, Starts: 5, Pauses: 5},
	}
	if got != want {
		t.Fatalf("scripted lifecycle moved:\ngot:  %+v\nwant: %+v", got, want)
	}
}
