package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/freerpc"
	"freeride/internal/model"
	"freeride/internal/sidetask"
	"freeride/internal/simtime"
)

// flakyWorker is a scripted worker-side RPC surface: Create/Init succeed
// (Init pushes the PAUSED transition back like a real worker), Start fails a
// configurable number of times before succeeding, Pause always fails. It
// exercises the manager's RPC error paths without a real task underneath.
// script, when it names a method, answers that method's next call instead.
type flakyWorker struct {
	mux        *freerpc.Mux
	notify     func(method string, params any)
	script     map[string]func() (any, error)
	initFails  int
	initCalls  int
	startFails int
	startCalls int
	pauseCalls int
}

func newFlakyWorker(startFails int) *flakyWorker {
	f := &flakyWorker{mux: freerpc.NewMux(), startFails: startFails, script: map[string]func() (any, error){}}
	freerpc.HandleFunc(f.mux, "Worker.Create", func(a createArgs) (any, error) {
		if fn, ok := f.scripted("Worker.Create"); ok {
			return fn()
		}
		return taskStatus{Name: a.Spec.Name, State: int(sidetask.StateCreated)}, nil
	})
	freerpc.HandleFunc(f.mux, "Worker.Init", func(ref taskRef) (any, error) {
		if fn, ok := f.scripted("Worker.Init"); ok {
			return fn()
		}
		f.initCalls++
		if f.initCalls <= f.initFails {
			return nil, fmt.Errorf("transient init failure %d", f.initCalls)
		}
		f.notify("Manager.TaskState", taskStatus{Name: ref.Name, State: int(sidetask.StatePaused)})
		return taskStatus{Name: ref.Name, State: int(sidetask.StateCreated)}, nil
	})
	freerpc.HandleFunc(f.mux, "Worker.Start", func(a startArgs) (any, error) {
		if fn, ok := f.scripted("Worker.Start"); ok {
			return fn()
		}
		f.startCalls++
		if f.startCalls <= f.startFails {
			return nil, fmt.Errorf("transient start failure %d", f.startCalls)
		}
		return taskStatus{Name: a.Name, State: int(sidetask.StateRunning), Started: true}, nil
	})
	freerpc.HandleFunc(f.mux, "Worker.Pause", func(ref taskRef) (any, error) {
		if fn, ok := f.scripted("Worker.Pause"); ok {
			return fn()
		}
		f.pauseCalls++
		return nil, errors.New("pause lost")
	})
	freerpc.HandleFunc(f.mux, "Worker.Stop", func(ref taskRef) (any, error) {
		if fn, ok := f.scripted("Worker.Stop"); ok {
			return fn()
		}
		return taskStatus{Name: ref.Name, State: int(sidetask.StateStopped)}, nil
	})
	return f
}

func (f *flakyWorker) scripted(method string) (func() (any, error), bool) {
	fn, ok := f.script[method]
	delete(f.script, method)
	return fn, ok
}

func newFlakyRig(t *testing.T, startFails int) (*simtime.Virtual, *Manager, *flakyWorker) {
	return newFlakyRigOpts(t, startFails, ManagerOptions{Tick: time.Millisecond})
}

func newFlakyRigOpts(t *testing.T, startFails int, opts ManagerOptions) (*simtime.Virtual, *Manager, *flakyWorker) {
	t.Helper()
	eng := simtime.NewVirtual()
	mgr := NewManager(eng, opts)
	mgrSide, workerSide := freerpc.MemPipe(eng, 200*time.Microsecond)
	mgrPeer := freerpc.NewPeer(eng, mgrSide, mgr.Mux())
	f := newFlakyWorker(startFails)
	workerPeer := freerpc.NewPeer(eng, workerSide, f.mux)
	f.notify = func(method string, params any) { _ = workerPeer.Notify(method, params) }
	mgr.AddWorker("w0", 0, 22*model.GiB, mgrPeer)
	return eng, mgr, f
}

// Record conditions a completion can find: the record it was issued for, a
// later incarnation of it, or one that has exited or parked meanwhile.
const (
	condLive = iota
	condStale
	condExited
	condParked
	numConds
)

var (
	kindNames    = [numCallKinds]string{"create", "init", "start", "pause", "stop"}
	outcomeNames = [numOutcomes]string{"failed", "no-reply", "undecodable", "exited", "acked"}
	condNames    = [numConds]string{"live", "stale", "exited", "parked"}
)

// ackStatus is the reply of the worker acknowledging a call of the kind.
var ackStatus = [numCallKinds]taskStatus{
	callCreate: {State: int(sidetask.StateCreated)},
	callInit:   {State: int(sidetask.StateCreated)},
	callStart:  {State: int(sidetask.StateRunning), Started: true},
	callPause:  {State: int(sidetask.StatePaused), TaskCkpt: TaskCkpt{Steps: 7, KernelTimeNs: 70, HostTimeNs: 700, InsuffNs: 7000}},
	callStop:   {State: int(sidetask.StateStopped)},
}

// replyFor scripts the worker's answer that produces the outcome.
func replyFor(kind callKind, out outcome) func() (any, error) {
	switch out {
	case outFailed:
		return func() (any, error) { return nil, errors.New("boom") }
	case outNoReply:
		return func() (any, error) { return nil, nil }
	case outUndecodable:
		return func() (any, error) { return "not a status", nil }
	case outExited:
		return func() (any, error) { return taskStatus{Name: "task", Exited: true, ExitErr: "boom"}, nil }
	}
	st := ackStatus[kind]
	st.Name = "task"
	return func() (any, error) { return st, nil }
}

// callWant is what one (kind, outcome) completion must do to a live record:
// apply edits a copy of the record as it stood when the reply arrived; kick
// says a reconcile pass was scheduled; detached that the record left its
// worker's current slot; served that a bubble was counted as served.
type callWant struct {
	apply    func(r *taskRecord, doneAt time.Duration)
	kick     bool
	detached bool
	served   bool
}

func retired(cause string) func(*taskRecord, time.Duration) {
	return func(r *taskRecord, _ time.Duration) {
		r.exited, r.exitErr, r.state = true, cause, sidetask.StateStopped
	}
}

func nowCreated(r *taskRecord, _ time.Duration)    { r.state = sidetask.StateCreated }
func startUnpinned(r *taskRecord, _ time.Duration) { r.startedSeq = 0 }
func runningAgain(r *taskRecord, _ time.Duration)  { r.state = sidetask.StateRunning }

// callWants is the expectation table, spelt out independently of callTable.
// A zero entry expects the completion to change nothing and wake nobody.
var callWants = [numCallKinds][numOutcomes]callWant{
	callCreate: {
		outFailed:      {apply: retired("boom"), kick: true},
		outNoReply:     {apply: nowCreated, kick: true},
		outUndecodable: {apply: nowCreated, kick: true},
		outExited:      {apply: nowCreated, kick: true},
		outAcked:       {apply: nowCreated, kick: true},
	},
	callInit: {
		outFailed: {apply: func(r *taskRecord, _ time.Duration) { r.initSent = false }, kick: true},
	},
	callStart: {
		outFailed:      {apply: startUnpinned, kick: true},
		outNoReply:     {apply: startUnpinned, kick: true},
		outUndecodable: {apply: startUnpinned, kick: true},
		outExited:      {apply: retired("boom"), kick: true, detached: true},
		outAcked: {served: true, apply: func(r *taskRecord, doneAt time.Duration) {
			r.state, r.serving, r.servedFrom = sidetask.StateRunning, true, doneAt
		}},
	},
	callPause: {
		outFailed:  {apply: runningAgain, kick: true},
		outNoReply: {apply: runningAgain, kick: true},
		outExited:  {apply: retired("boom"), kick: true, detached: true},
		outAcked: {apply: func(r *taskRecord, _ time.Duration) {
			r.ckpt = TaskCkpt{Steps: 7, KernelTimeNs: 70, HostTimeNs: 700, InsuffNs: 7000}
			r.hasCkpt, r.servedSinceCkpt = true, 0
		}},
	},
	callStop: {
		outFailed: {apply: retired("stop failed: boom")},
	},
}

// callRig is a running manager with one scripted worker and one task, PAUSED
// and promoted to the worker's current slot, with nothing left to do: no
// bubble, no timer armed. A call issued now is the only thing in flight.
type callRig struct {
	eng *simtime.Virtual
	mgr *Manager
	f   *flakyWorker
	w   *workerMeta
	rec *taskRecord
}

func newCallRig(t *testing.T, opts ManagerOptions) *callRig {
	t.Helper()
	eng, mgr, f := newFlakyRigOpts(t, 0, opts)
	if err := mgr.Submit(spec("task", model.ResNet18, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	eng.RunFor(100 * time.Millisecond) // create + init + paused push
	r := &callRig{eng: eng, mgr: mgr, f: f, w: mgr.workers[0], rec: mgr.tasks["task"]}
	if r.w.current != r.rec || r.rec.state != sidetask.StatePaused || r.kicked() {
		t.Fatalf("rig not quiescent: current=%v state=%v kick=%v", r.w.current, r.rec.state, r.kicked())
	}
	return r
}

func (r *callRig) kicked() bool { return r.w.kickTimer != nil && r.w.kickTimer.Pending() }

// issue puts the record in the state Algorithm 2 issues the kind from, issues
// it with the worker scripted to answer with the outcome, and checks the
// call's optimistic write.
func (r *callRig) issue(t *testing.T, kind callKind, out outcome) {
	t.Helper()
	m, w, rec := r.mgr, r.w, r.rec
	switch kind {
	case callCreate:
		rec.state = sidetask.StateSubmitted
	case callInit:
		rec.state, rec.initSent = sidetask.StateCreated, false
	case callStart:
		m.adoptions++
		w.bubble = bubble.Bubble{Start: r.eng.Now(), Duration: time.Second}
		w.hasBubble, w.bubbleSeq = true, m.adoptions
	case callPause:
		rec.state, rec.serving, rec.servedFrom = sidetask.StateRunning, true, r.eng.Now()
		rec.servedSinceCkpt = 5 * time.Millisecond
	}
	r.f.script[callTable[kind].method] = replyFor(kind, out)
	before := m.stats.RPCs
	m.goCall(kind, w, rec)
	if m.stats.RPCs != before+1 {
		t.Errorf("issuing bumped RPCs by %d, want 1", m.stats.RPCs-before)
	}
	var ok bool
	switch kind {
	case callInit:
		ok = rec.initSent
	case callStart:
		ok = rec.startedSeq == w.bubbleSeq
	case callPause:
		ok = rec.state == sidetask.StatePaused && !rec.serving
	default:
		ok = true
	}
	if !ok {
		t.Errorf("optimistic write missing after issuing %s: %+v", kindNames[kind], rec)
	}
}

// settle lets the one in-flight call complete (request and reply, 200 µs
// each way, land before the next grid instant) and holds the record, the
// worker's slots and the kick timer to want.
func (r *callRig) settle(t *testing.T, want callWant) {
	t.Helper()
	expect := *r.rec
	served := r.mgr.stats.BubblesServed
	doneAt := r.eng.Now() + 400*time.Microsecond
	r.eng.RunFor(500 * time.Microsecond)
	if want.apply != nil {
		want.apply(&expect, doneAt)
	}
	got := *r.rec
	if prefix, ok := strings.CutSuffix(expect.exitErr, "boom"); ok &&
		strings.HasPrefix(got.exitErr, prefix) && strings.HasSuffix(got.exitErr, "boom") {
		got.exitErr = expect.exitErr // the RPC layer wraps the handler's error in between
	}
	if !reflect.DeepEqual(got, expect) {
		t.Errorf("record after completion:\ngot:  %+v\nwant: %+v", got, expect)
	}
	if r.kicked() != want.kick {
		t.Errorf("kick armed = %v, want %v", r.kicked(), want.kick)
	}
	wantCurrent := r.rec
	if want.detached {
		wantCurrent = nil
	}
	if r.w.current != wantCurrent || len(r.w.queue) != 0 {
		t.Errorf("worker slots: current=%v queue=%d, want current=%v and an empty queue", r.w.current, len(r.w.queue), wantCurrent)
	}
	if got := r.mgr.stats.BubblesServed - served; (got == 1) != want.served || got > 1 {
		t.Errorf("BubblesServed moved by %d, want served=%v", got, want.served)
	}
}

// TestCallOutcomes is the exhaustive pin of the call table: every call kind
// × every outcome × every condition the completion can find its record in.
// A live record takes the (kind, outcome) entry of callWants; a stale
// incarnation, an exited record and a parked one change nothing — except
// that a failed Init still wakes the worker of an exited or parked record.
// The four tests after it drive one failure cell each end to end, through
// Algorithm 2's own retries.
func TestCallOutcomes(t *testing.T) {
	opts := ManagerOptions{Tick: time.Millisecond}
	for kind := callKind(0); kind < numCallKinds; kind++ {
		for out := outcome(0); out < numOutcomes; out++ {
			for cond := 0; cond < numConds; cond++ {
				name := kindNames[kind] + "/" + outcomeNames[out] + "/" + condNames[cond]
				t.Run(name, func(t *testing.T) {
					r := newCallRig(t, opts)
					r.issue(t, kind, out)
					want := callWants[kind][out]
					dead := callWant{kick: kind == callInit && out == outFailed}
					switch cond {
					case condStale:
						r.rec.incarnation++
						want = callWant{}
					case condExited:
						r.rec.exited = true
						want = dead
					case condParked:
						r.rec.parked = true
						want = dead
					}
					r.settle(t, want)
				})
			}
		}
	}
	// Rows beside the grid: the two branches a cell takes on something other
	// than its outcome.
	t.Run("start/acked-not-started/live", func(t *testing.T) {
		r := newCallRig(t, opts)
		r.issue(t, callStart, outAcked)
		r.f.script["Worker.Start"] = func() (any, error) {
			return taskStatus{Name: "task", State: int(sidetask.StateCreated)}, nil
		}
		r.settle(t, callWant{kick: true, apply: func(rec *taskRecord, _ time.Duration) {
			rec.state = sidetask.StateCreated // whatever the worker reports
		}})
	})
	t.Run("create/failed/live/recovery-armed", func(t *testing.T) {
		r := newCallRig(t, leaseOpts())
		r.issue(t, callCreate, outFailed)
		r.eng.RunFor(500 * time.Microsecond)
		rec := r.rec
		if rec.exited || rec.incarnation != 1 || rec.restarts != 1 || rec.state != sidetask.StateSubmitted ||
			rec.retryTimer == nil || !rec.retryTimer.Pending() || r.w.current != nil || r.kicked() {
			t.Errorf("failed create under recovery: %+v (current=%v kick=%v), want detached and in backoff", rec, r.w.current, r.kicked())
		}
	})
}

// TestFailedStartUnpinsBubbleForRetry: a failed Worker.Start used to leave
// startedForBubble pinned, so the bubble was never retried; the error path
// must clear it and the next pass must retry into the same bubble.
func TestFailedStartUnpinsBubbleForRetry(t *testing.T) {
	eventDriven(t, func(t *testing.T) {
		eng, mgr, f := newFlakyRig(t, 2)
		if err := mgr.Submit(spec("task", model.ResNet18, sidetask.ModeIterative)); err != nil {
			t.Fatal(err)
		}
		mgr.Start()
		eng.RunFor(100 * time.Millisecond) // create + init + paused push
		base := eng.Now()
		mgr.AddBubble(bubble.Bubble{
			Stage: 0, Start: base, Duration: 200 * time.Millisecond,
			MemAvailable: 22 * model.GiB,
		})
		eng.RunFor(100 * time.Millisecond)
		if f.startCalls != 3 {
			t.Fatalf("startCalls = %d, want 3 (two failures then success)", f.startCalls)
		}
		if got := mgr.Stats().BubblesServed; got != 1 {
			t.Fatalf("BubblesServed = %d, want 1 after retries", got)
		}
		if tv := mgr.Tasks()[0]; tv.State != sidetask.StateRunning {
			t.Fatalf("task state = %v, want RUNNING", tv.State)
		}
	})
}

// TestFailedInitRetried: a failed Worker.Init used to leave initSent pinned
// with the task stuck in CREATED, starving the worker's queue forever; the
// error path must unpin it so a later pass retries.
func TestFailedInitRetried(t *testing.T) {
	eventDriven(t, func(t *testing.T) {
		eng, mgr, f := newFlakyRig(t, 0)
		f.initFails = 2
		if err := mgr.Submit(spec("task", model.ResNet18, sidetask.ModeIterative)); err != nil {
			t.Fatal(err)
		}
		mgr.Start()
		eng.RunFor(100 * time.Millisecond)
		if f.initCalls != 3 {
			t.Fatalf("initCalls = %d, want 3 (two failures then success)", f.initCalls)
		}
		if tv := mgr.Tasks()[0]; tv.State != sidetask.StatePaused {
			t.Fatalf("task state = %v, want PAUSED after init retries", tv.State)
		}
	})
}

// TestFailedPauseCorrectsOptimisticState: issuing a pause records PAUSED
// optimistically; when the pause RPC fails the record must be corrected back
// to RUNNING instead of lying forever.
func TestFailedPauseCorrectsOptimisticState(t *testing.T) {
	eventDriven(t, func(t *testing.T) {
		eng, mgr, f := newFlakyRig(t, 0)
		if err := mgr.Submit(spec("task", model.ResNet18, sidetask.ModeIterative)); err != nil {
			t.Fatal(err)
		}
		mgr.Start()
		eng.RunFor(100 * time.Millisecond)
		base := eng.Now()
		mgr.AddBubble(bubble.Bubble{
			Stage: 0, Start: base, Duration: 50 * time.Millisecond,
			MemAvailable: 22 * model.GiB,
		})
		eng.RunFor(200 * time.Millisecond) // bubble ends, pause sent and lost
		if f.pauseCalls == 0 {
			t.Fatal("pause never attempted")
		}
		if tv := mgr.Tasks()[0]; tv.State != sidetask.StateRunning {
			t.Fatalf("task state = %v after lost pause, want RUNNING (worker truth)", tv.State)
		}
	})
}

// TestStopRPCFailureRetiresRecord pins the StopAll limbo fix: a failed
// Worker.Stop call retires the manager's record instead of leaving it
// forever non-exited — symmetric to the Init/Pause failure paths.
func TestStopRPCFailureRetiresRecord(t *testing.T) {
	eng := simtime.NewVirtual()
	mgr := NewManager(eng, ManagerOptions{Tick: time.Millisecond})
	// A worker stub that creates tasks fine but has no Worker.Stop method,
	// so every stop fails at the RPC layer.
	wmux := freerpc.NewMux()
	freerpc.HandleFunc(wmux, "Worker.Create", func(createArgs) (any, error) {
		return taskStatus{}, nil
	})
	a, b := freerpc.MemPipe(eng, 100*time.Microsecond)
	peer := freerpc.NewPeer(eng, a, mgr.Mux())
	freerpc.NewPeer(eng, b, wmux)
	mgr.AddWorker("w0", 0, 22*model.GiB, peer)
	if err := mgr.Submit(spec("t", model.ResNet18, sidetask.ModeIterative)); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Second)
	mgr.StopAll()
	eng.RunFor(2 * time.Second)
	tv := taskView(t, mgr, "t")
	if !tv.Exited || !strings.Contains(tv.ExitErr, "stop failed") {
		t.Fatalf("task after failed Stop = %+v, want retired with stop-failed", tv)
	}
}

// TestDeadWorkerQueuesNoBubbles: a dead worker never revives and nothing
// pops its pending queue, so reports for its stage must be counted and
// dropped, not queued for the rest of the run.
func TestDeadWorkerQueuesNoBubbles(t *testing.T) {
	r := newRig(t, 1, []int64{22 * model.GiB}, WorkerConfig{})
	r.mgr.Start()
	r.eng.RunFor(10 * time.Millisecond)
	w := r.mgr.workers[0]
	r.mgr.workerLost(w, "worker lost")
	const n = 32
	for i := 0; i < n; i++ {
		r.mgr.AddBubble(bubble.Bubble{Stage: 0, Start: r.eng.Now() + time.Duration(i)*time.Second, Duration: time.Second})
	}
	r.eng.RunFor(time.Second)
	if got := w.pending.Len(); got != 0 {
		t.Errorf("dead worker holds %d pending bubbles, want 0", got)
	}
	if got := r.mgr.Stats().BubblesAdded; got != n {
		t.Errorf("BubblesAdded = %d, want %d (dropped reports still count)", got, n)
	}
}
