package core

import (
	"reflect"
	"testing"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/freerpc"
	"freeride/internal/model"
	"freeride/internal/sidetask"
	"freeride/internal/simgpu"
	"freeride/internal/simtime"
)

// warmEngine grows every calendar-wheel bucket and the detached-timer
// free-list of a fresh engine past what a one-worker control plane needs (a
// burst of no-op events in every half-millisecond of the wheel horizon), so
// the pins below see the control plane's allocations and not the engine's
// amortised bucket growth.
func warmEngine(eng *simtime.Virtual) {
	for d := time.Duration(0); d < 300*time.Millisecond; d += 500 * time.Microsecond {
		for i := 0; i < 8; i++ {
			eng.ScheduleDetached(d, "warm", func() {})
		}
	}
}

// quietRig is one manager and one worker with a deployed, initialised
// ResNet18 task, on a device that records no traces.
func quietRig(t *testing.T, mopts ManagerOptions) *rig {
	t.Helper()
	r := newRigDev(t, 1, []int64{22 * model.GiB}, WorkerConfig{}, mopts,
		simgpu.DeviceConfig{MemBytes: model.ServerI.GPUMemBytes, NoTraces: true})
	warmEngine(r.eng)
	if err := r.mgr.Submit(spec("t0", model.ResNet18, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	r.mgr.Start()
	r.eng.RunFor(5 * time.Second) // create + init
	if tv := taskView(t, r.mgr, "t0"); tv.State != sidetask.StatePaused {
		t.Fatalf("task view after set-up = %+v, want PAUSED", tv)
	}
	return r
}

// TestSteadyStatePingAllocFree pins the failure detector: with a lease armed
// and one task running, a ping round trip — the probe, the worker's status
// snapshot of its roster, the reply, the anti-entropy pass and the lease
// re-arm — allocates nothing.
func TestSteadyStatePingAllocFree(t *testing.T) {
	r := quietRig(t, leaseOpts())
	r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: r.eng.Now(), Duration: time.Hour})
	period := leaseOpts().Lease / 2
	round := func() { r.eng.RunFor(period) }
	for i := 0; i < 16; i++ {
		round()
	}
	if tv := taskView(t, r.mgr, "t0"); tv.State != sidetask.StateRunning {
		t.Fatalf("task view = %+v, want RUNNING", tv)
	}
	before := r.mgr.Stats().Pings
	const runs = 64
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Errorf("a steady-state ping period allocates %.2f objects, want 0", allocs)
	}
	if got := r.mgr.Stats().Pings - before; got != runs+1 { // AllocsPerRun warms up once
		t.Errorf("%d pings in %d periods, want one each", got, runs+1)
	}
	if st := r.mgr.Stats(); st.WorkersLost != 0 {
		t.Errorf("WorkersLost = %d, want 0", st.WorkersLost)
	}
}

// TestSteadyStatePingPeriodEvents pins what the failure detector costs the
// engine: on a 4-worker rig with nothing else to do, a ping period dispatches
// exactly three events — the manager's one liveness tick, the batch that
// delivers its four requests and the batch that delivers the four replies —
// where a ping timer per worker, each message its own event, cost twelve.
func TestSteadyStatePingPeriodEvents(t *testing.T) {
	gib := int64(22 * model.GiB)
	r := newRigOpts(t, 4, []int64{gib, gib, gib, gib}, WorkerConfig{}, leaseOpts())
	period := leaseOpts().Lease / 2
	r.mgr.Start()
	r.eng.RunFor(4 * period) // past the first tick's lease checks
	for i := 0; i < 8; i++ {
		events, pings := r.eng.Dispatched(), r.mgr.Stats().Pings
		r.eng.RunFor(period)
		if got := r.eng.Dispatched() - events; got != 3 {
			t.Fatalf("period %d dispatched %d events, want 3 (tick, request batch, reply batch)", i, got)
		}
		if got := r.mgr.Stats().Pings - pings; got != 4 {
			t.Fatalf("period %d sent %d pings, want one per worker", i, got)
		}
	}
}

// TestSteadyStateBubbleCycleAllocFree pins Algorithm 2's cycle in the shape
// of the benchmark's core.bubble_cycle_ns driver: a pooled bubble report over
// its own link, adoption, Worker.Start, the state pushes, the bubble-end
// Worker.Pause and the checkpoint. The bubble is shorter than a step, so the
// cycle holds the control-plane work and no side-task step.
func TestSteadyStateBubbleCycleAllocFree(t *testing.T) {
	r := quietRig(t, ManagerOptions{Tick: time.Millisecond})
	pipeEnd, mgrEnd := freerpc.MemPipe(r.eng, 200*time.Microsecond)
	pipePeer := freerpc.NewPeer(r.eng, pipeEnd, nil)
	freerpc.NewPeer(r.eng, mgrEnd, r.mgr.Mux())
	var reports freerpc.Pool[bubble.Bubble]
	cycle := func() {
		d := reports.Get()
		d.V = bubble.Bubble{Stage: 0, Start: r.eng.Now(), Duration: 20 * time.Millisecond}
		if err := pipePeer.Notify("Manager.AddBubble", d); err != nil {
			t.Fatal(err)
		}
		r.eng.RunFor(40 * time.Millisecond)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	before, wbefore := r.mgr.Stats(), r.workers[0].Stats()
	const runs = 64
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("a steady-state bubble cycle allocates %.2f objects, want 0", allocs)
	}
	after, wafter := r.mgr.Stats(), r.workers[0].Stats()
	if got := after.BubblesServed - before.BubblesServed; got != runs+1 {
		t.Errorf("%d of %d bubbles served", got, runs+1)
	}
	if s, p := wafter.Starts-wbefore.Starts, wafter.Pauses-wbefore.Pauses; s != runs+1 || p != runs+1 {
		t.Errorf("worker saw %d starts and %d pauses in %d cycles", s, p, runs+1)
	}
}

// TestDecodeResultLiveAllocFree pins freerpc.DecodeResult on the two reply
// types the manager decodes per cycle and per ping: a live value, plain or
// pooled, comes back without a heap T (the JSON branches used to force one
// on every call by taking the result's address).
func TestDecodeResultLiveAllocFree(t *testing.T) {
	var statuses freerpc.Pool[taskStatus]
	var pings freerpc.Pool[pingReply]
	ps, pp := statuses.Get(), pings.Get()
	ps.V = taskStatus{Name: "t0", State: 3, TaskCkpt: TaskCkpt{Steps: 7}}
	pp.V = pingReply{Name: "worker0", Tasks: []taskStatus{ps.V}}
	for _, tc := range []struct {
		name   string
		allocs float64
	}{
		{"taskStatus", decodeAllocs[taskStatus](t, ps.V)},
		{"pooled taskStatus", decodeAllocs[taskStatus](t, ps)},
		{"pingReply", decodeAllocs[pingReply](t, pp.V)},
		{"pooled pingReply", decodeAllocs[pingReply](t, pp)},
	} {
		if tc.allocs != 0 {
			t.Errorf("DecodeResult of a live %s allocates %.2f objects, want 0", tc.name, tc.allocs)
		}
	}
}

// decodeAllocs counts the allocations of one DecodeResult[T](v).
func decodeAllocs[T any](t *testing.T, v any) float64 {
	var out T
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		if out, err = freerpc.DecodeResult[T](v); err != nil {
			t.Fatal(err)
		}
	})
	if reflect.ValueOf(out).IsZero() {
		t.Fatalf("DecodeResult(%T) returned a zero %T", v, out)
	}
	return allocs
}

// TestPendingBubblesAllocFree pins the manager's bubble queue on its own (no
// task, so no RPC): report two bubbles, let both be adopted and end. Popping
// the front must keep the queue's capacity and hold the adopted bubble by
// value.
func TestPendingBubblesAllocFree(t *testing.T) {
	eng := simtime.NewVirtual()
	warmEngine(eng)
	mgr := NewManager(eng, ManagerOptions{Tick: time.Millisecond})
	a, _ := freerpc.MemPipe(eng, 0)
	mgr.AddWorker("w0", 0, 22*model.GiB, freerpc.NewPeer(eng, a, nil))
	mgr.Start()
	cycle := func() {
		now := eng.Now()
		mgr.AddBubble(bubble.Bubble{Stage: 0, Start: now + time.Millisecond, Duration: 2 * time.Millisecond})
		mgr.AddBubble(bubble.Bubble{Stage: 0, Start: now + 4*time.Millisecond, Duration: 2 * time.Millisecond})
		eng.RunFor(10 * time.Millisecond)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(64, cycle); allocs != 0 {
		t.Errorf("queueing and adopting two bubbles allocates %.2f objects, want 0", allocs)
	}
	w := mgr.workers[0]
	if w.pending.Len() != 0 || w.hasBubble || w.bubbleSeq != 2*(16+64+1) {
		t.Errorf("pending = %d, hasBubble = %v, adoptions = %d: want every bubble adopted and ended",
			w.pending.Len(), w.hasBubble, w.bubbleSeq)
	}
}

// TestTaskQueuePopKeepsCapacity pins the worker's task queue: promoting the
// front task compacts in place — the capacity stays for the next placement
// and the vacated slot no longer references the promoted record.
func TestTaskQueuePopKeepsCapacity(t *testing.T) {
	r := newRig(t, 1, []int64{22 * model.GiB}, WorkerConfig{})
	for _, name := range []string{"t0", "t1", "t2"} {
		if err := r.mgr.Submit(spec(name, model.PageRank, sidetask.ModeIterative)); err != nil {
			t.Fatal(err)
		}
	}
	w := r.mgr.workers[0]
	before := cap(w.queue)
	r.mgr.Start()
	r.eng.RunFor(10 * time.Millisecond)
	if w.current == nil || w.current.spec.Name != "t0" || len(w.queue) != 2 {
		t.Fatalf("current = %v, %d queued: want t0 promoted and two waiting", w.current, len(w.queue))
	}
	if cap(w.queue) != before {
		t.Errorf("queue capacity %d after the pop, want %d kept", cap(w.queue), before)
	}
	if tail := w.queue[:3][2]; tail != nil {
		t.Errorf("vacated slot still references %q", tail.spec.Name)
	}
}
