// Package simproc implements simulated OS processes on top of a simtime
// engine — a simulation's own, or one a live daemon's simtime.Wall paces; a
// process cannot tell them apart. A process exists in one of two flavours:
//
//   - Event-loop (inline) processes run entirely on the engine goroutine as
//     continuation-passing state machines (SpawnInline): a blocking point is
//     expressed by arming the process's wait slot with a continuation and
//     returning to the engine. Waking costs a function call — no goroutine
//     switch, no channel operation, no allocation. The simulator's hot
//     interior loops (side-task steps, pipeline stage ops) run this way.
//   - Goroutine processes (Spawn) run user code on a dedicated goroutine and
//     hand control back to the engine whenever they block, so arbitrary
//     imperative bodies work unchanged (examples, live mode, the imperative
//     side-task interface). Such a process is a coroutine of whoever wakes
//     it (iter.Pull): the body runs only between a resumer's next and its
//     own next park, with the resumer suspended for exactly that interval,
//     so it never runs beside the dispatcher and needs no lock — the
//     coroutine switch is the happens-before edge. next is called from
//     engine-callback context only (the dispatcher, or another body that is
//     itself inside someone's next: a nested resume), which on a paced
//     engine includes simtime.Wall.Do. In return a body must not
//     hand its Process — or anything that reaches the engine through it,
//     like sidetask's Ctx or a simgpu client — to goroutines it starts
//     itself: those would run beside the dispatcher, which nothing here
//     guards.
//
// Both flavours share one wake path: each Process owns a reusable,
// generation-checked wait slot, and every wake source (timers, kernel
// completions, latches, mailboxes, RPC replies) delivers through
// Process.Wake. Wake sources are audited to fire exactly once per armed
// wait; wakes addressed to a terminated process (e.g. the sleep timer of a
// killed process firing late) are discarded. This is what makes the wait
// path allocation-free: there is no per-wait closure state to guard against
// duplicate deliveries.
//
// Processes support the three signals FreeRide's worker uses (paper §4.2,
// §4.5): Stop (SIGTSTP) and Cont (SIGCONT) for the imperative interface's
// transparent pause/resume, and Kill (SIGKILL) for the framework-enforced
// resource limit. Signal semantics deliberately mirror the CUDA reality the
// paper describes: stopping a process does not abort work already submitted
// to the GPU — only the *next* blocking boundary is affected (for both
// flavours, a Stop defers the delivery of the next wake until Cont) —
// whereas killing a process destroys it (and its GPU context, via the exit
// hooks).
package simproc

import (
	"errors"
	"fmt"
	"iter"
	"time"

	"freeride/internal/simtime"
)

// State describes a process's lifecycle state.
type State int

// Process lifecycle states.
const (
	StateRunning State = iota + 1 // live: executing or parked, schedulable
	StateStopped                  // live but suspended by Stop (SIGTSTP)
	StateExited                   // terminated normally or by error
	StateKilled                   // terminated by Kill
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	case StateExited:
		return "exited"
	case StateKilled:
		return "killed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// ErrKilled is the exit error of a killed process.
var ErrKilled = errors.New("simproc: killed")

// killedPanic unwinds a killed process's goroutine; defers still run, but
// further blocking calls re-panic immediately so cleanup cannot stall.
type killedPanic struct{ p *Process }

// Runtime creates processes on one engine. Every event a process schedules
// — its start, its sleeps — belongs to the runtime's owner (As).
type Runtime struct {
	eng   *simtime.Virtual
	seq   *int
	owner simtime.Owner
}

// NewRuntime returns a process runtime bound to eng, owned by
// simtime.OwnerOther.
func NewRuntime(eng *simtime.Virtual) *Runtime {
	return &Runtime{eng: eng, seq: new(int)}
}

// As returns a view of rt whose processes' events belong to o. The views of
// one runtime number their processes in one sequence.
func (rt *Runtime) As(o simtime.Owner) *Runtime {
	return &Runtime{eng: rt.eng, seq: rt.seq, owner: o}
}

// Owner reports the owner of the runtime's processes' events.
func (rt *Runtime) Owner() simtime.Owner { return rt.owner }

// Engine returns the engine the runtime schedules on.
func (rt *Runtime) Engine() *simtime.Virtual { return rt.eng }

// Process is one simulated process. Goroutine-process bodies must interact
// with time only through the blocking primitives; inline bodies only through
// the *Then continuation primitives.
//
// A goroutine body may defer a sleep (DeferSleep): the process records it as
// a pending host phase and keeps running. The next blocking kernel launch on
// a device that can lead takes the phase whole as the kernel's host lead
// (TakeDeferredSleep, simgpu's Exec), which costs one engine event and one
// coroutine round trip instead of two of each. Anything else that observes
// time spends the phase first as the exact Sleep it replaces: any wait the
// process arms (BeginWait, and so Sleep, Recv, WaitEvent and a launch that
// cannot lead), a clock read (Now), another DeferSleep, or the body's return.
// Code between DeferSleep and that point runs at the start of the phase.
type Process struct {
	rt     *Runtime
	name   string
	inline bool
	// wakeFn is the precomputed sleep-event callback: Sleep is the hottest
	// schedule site in the simulator and must not allocate per call.
	wakeFn func()
	// wakeAny is the precomputed func(any) form of Wake handed to WaitEvent
	// setups, so registering a wake source allocates nothing.
	wakeAny func(any)

	// Coroutine (goroutine processes): next runs the body up to its next
	// park or its return and stop unwinds a parked body, both on the
	// resumer's side; yield is the body's side of the same switch. wakeMsg
	// is the single deposit slot, written by the waker before next and read
	// back by park.
	next    func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
	wakeMsg any
	// deferred is the pending host phase of DeferSleep (0: none). Written
	// only by the body's own goroutine, so it needs no lock: it is non-zero
	// only while the body runs, when nothing else touches the process.
	deferred time.Duration

	// Lifecycle state.
	state      State
	exitErr    error
	parked     bool
	parkReason string
	killed     bool
	stopped    bool
	onExit     []func(err error)
	// sigHook, when set, observes delivered SigStop/SigCont transitions
	// (after the state change, before any pending delivery drains). The
	// fused side-task step loop uses it to freeze/resume a host-lead kernel
	// exactly where the unfused sleep boundary would have frozen.
	sigHook func(Signal)

	// Reusable wait slot. waitGen counts arms (diagnostics); waitOpen marks
	// the arming phase, during which a synchronous Wake is recorded and
	// returned without parking; cont is the continuation of an inline wait.
	waitGen   uint64
	waitArmed bool
	waitOpen  bool
	waitDone  bool
	waitData  any
	cont      func(any)
	// chainOpen marks an in-flight chained delivery (WakeChained): the slot
	// stays armed while the continuation runs so ChainWait can re-arm it in
	// place. Cleared by ChainWait, by BeginWait (the continuation moved on
	// to a different wait), by exit, or by the delivery's epilogue.
	chainOpen bool

	// pendingData holds a wake deferred while stopped (SIGTSTP semantics).
	pendingData any
	hasPending  bool
}

// newProcess allocates the shared process core.
func (rt *Runtime) newProcess(name string, inline bool) *Process {
	*rt.seq++
	p := &Process{
		rt:     rt,
		name:   fmt.Sprintf("%s#%d", name, *rt.seq),
		inline: inline,
		state:  StateRunning,
	}
	p.wakeFn = func() { p.Wake(nil) }
	p.wakeAny = p.Wake
	return p
}

// Spawn starts fn as a new goroutine process. fn begins executing at
// engine-time Now() (as a scheduled event). The returned Process can be
// signaled and observed immediately.
//
// Like SpawnInline, Spawn keeps the engine's one owner: the body calls
// Schedule/Now only while its resumer is suspended in next, so it is one
// more continuation of that owner.
func (rt *Runtime) Spawn(name string, fn func(p *Process) error) *Process {
	p := rt.newProcess(name, false)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(fn)
	})
	rt.eng.ScheduleDetachedBy(rt.owner, 0, func() { p.resume(nil, false) })
	return p
}

// SpawnInline starts an event-loop process: start runs as an engine event at
// the current instant, on the engine goroutine. The body expresses blocking
// through the *Then primitives (SleepThen, Mailbox.RecvThen,
// simgpu's ExecThen, or BeginWait/EndWait directly) and terminates by
// calling p.Exit.
func (rt *Runtime) SpawnInline(name string, start func(p *Process)) *Process {
	p := rt.newProcess(name, true)
	rt.eng.ScheduleDetachedBy(rt.owner, 0, func() {
		if p.state == StateExited || p.state == StateKilled {
			return // killed before the start event fired
		}
		start(p)
	})
	return p
}

// run executes a goroutine process body with kill-unwinding and exit
// bookkeeping.
func (p *Process) run(fn func(p *Process) error) {
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if kp, ok := r.(killedPanic); ok && kp.p == p {
					err = ErrKilled
					return
				}
				err = fmt.Errorf("simproc: process %s panicked: %v", p.name, r)
			}
		}()
		err = fn(p)
		p.spendDeferred() // a body returning mid-phase exits where it ends
	}()
	p.deferred = 0 // a panic left it pending

	if errors.Is(err, ErrKilled) {
		p.state = StateKilled
	} else {
		p.state = StateExited
	}
	p.exitErr = err
	hooks := p.onExit
	p.onExit = nil

	for _, h := range hooks {
		h(err)
	}
	// Returning ends the coroutine's sequence, which hands control back to
	// the resumer; future wakes observe the dead state and return at once.
}

// Name reports the unique process name.
func (p *Process) Name() string { return p.name }

// Owner reports the owner of the process's events (Runtime.As).
func (p *Process) Owner() simtime.Owner { return p.rt.owner }

// Engine returns the engine the process runs on.
func (p *Process) Engine() *simtime.Virtual { return p.rt.eng }

// Now reports the current engine time. A goroutine body's deferred sleep is
// spent first, so the body reads the clock the sleep would have left.
func (p *Process) Now() time.Duration {
	if p.deferred > 0 {
		p.spendDeferred()
	}
	return p.rt.eng.Now()
}

// State reports the process state.
func (p *Process) State() State {
	return p.state
}

// ExitErr reports the body's return value (or ErrKilled) once terminated.
func (p *Process) ExitErr() error {
	return p.exitErr
}

// Alive reports whether the process has not terminated.
func (p *Process) Alive() bool {
	st := p.State()
	return st == StateRunning || st == StateStopped
}

// ParkReason reports what the process is blocked on, for debugging.
func (p *Process) ParkReason() string {
	return p.parkReason
}

// WaitGen reports how many waits the process has armed so far (diagnostics
// for the exactly-once wake audit).
func (p *Process) WaitGen() uint64 {
	return p.waitGen
}

// OnExit registers a hook called (in process context, after the body
// returns) when the process terminates. If the process has already
// terminated the hook runs immediately.
func (p *Process) OnExit(h func(err error)) {
	if p.state == StateExited || p.state == StateKilled {
		h(p.exitErr)
		return
	}
	p.onExit = append(p.onExit, h)
}

// SetSignalHook registers fn to observe SigStop/SigCont deliveries that
// change the process's run state (re-deliveries to an already-stopped or
// already-running process are not reported). The hook runs in the signaling
// caller's engine context, after the state transition: on SigCont it runs
// before any deferred wake delivery drains, so it can restore external state
// (a held host-lead kernel) the resumed continuation depends on. At most one
// hook; nil clears it.
func (p *Process) SetSignalHook(fn func(Signal)) {
	p.sigHook = fn
}

// Exit terminates an inline process: it records the exit error, runs the
// exit hooks and marks the process dead. The body must return to the engine
// right after calling it. Goroutine processes terminate by returning from
// their body instead.
func (p *Process) Exit(err error) {
	if !p.inline {
		panic("simproc: Exit on a goroutine process (return from the body instead)")
	}
	p.exitInline(err)
}

// exitInline is the inline termination path (also used by SigKill).
func (p *Process) exitInline(err error) {
	if p.state == StateExited || p.state == StateKilled {
		return
	}
	if errors.Is(err, ErrKilled) {
		p.state = StateKilled
	} else {
		p.state = StateExited
	}
	p.exitErr = err
	p.waitArmed = false
	p.waitOpen = false
	p.waitDone = false
	p.waitData = nil
	p.cont = nil
	p.chainOpen = false
	p.parkReason = ""
	p.hasPending = false
	p.pendingData = nil
	hooks := p.onExit
	p.onExit = nil
	for _, h := range hooks {
		h(err)
	}
}

// --- wait slot -------------------------------------------------------------

// BeginWait arms the process's reusable wait slot. For inline processes k is
// the continuation to run when the wake arrives; goroutine processes pass
// nil and park in Await. Between BeginWait and Await/EndWait the caller
// registers exactly one wake source that will invoke p.Wake — a source may
// also deliver synchronously during registration, in which case the process
// never blocks. A deferred sleep is spent before the wait is armed.
func (p *Process) BeginWait(k func(any)) {
	if p.deferred > 0 {
		p.spendDeferred()
	}
	if p.inline && (k == nil) {
		panic("simproc: BeginWait(nil) on an inline process")
	}
	p.waitGen++
	p.waitArmed = true
	p.waitOpen = true
	p.waitDone = false
	p.waitData = nil
	p.cont = k
	// Arming a fresh wait from inside a chained delivery supersedes the
	// chain: the epilogue must not disarm the new wait.
	p.chainOpen = false
}

// Await completes a goroutine process's wait: it parks until the armed wake
// arrives (or returns immediately if it already did) and returns the wake's
// data.
func (p *Process) Await(reason string) any {
	p.waitOpen = false
	if p.waitDone {
		data := p.waitData
		p.waitDone = false
		p.waitData = nil
		return data
	}
	return p.park(reason)
}

// EndWait completes an inline process's wait registration: if the wake
// already arrived during registration the continuation runs immediately,
// otherwise the process returns to the engine and the continuation runs when
// Wake is called.
func (p *Process) EndWait(reason string) {
	p.waitOpen = false
	if p.waitDone {
		p.waitDone = false
		data := p.waitData
		p.waitData = nil
		k := p.cont
		p.cont = nil
		k(data)
		return
	}
	if p.waitArmed {
		p.parkReason = reason
	}
}

// Wake delivers data to the process's currently armed wait. It is the single
// wake entry every audited source uses; each armed wait must be woken
// exactly once. Wakes addressed to a terminated process, or arriving with no
// wait armed (a stale timer), are discarded. A wake delivered while the
// process is stopped (SIGTSTP) is held and re-delivered on SIGCONT.
func (p *Process) Wake(data any) {
	p.deliver(data, false)
}

// WakeChained delivers like Wake but, on an inline process, keeps the wait
// slot armed while the continuation runs: a continuation that immediately
// re-arms — simgpu's ExecThen issuing the next kernel of a self-loop — does
// so in place through ChainWait, skipping the disarm/re-arm round trip of a
// Wake-then-BeginWait cycle. A continuation that returns without chaining
// (and without arming a different wait or exiting) leaves the slot exactly
// as Wake would have: disarmed. All other semantics — discarding wakes to
// dead processes or unarmed slots, recording synchronous deliveries,
// deferring under SIGTSTP, resuming goroutine processes — are Wake's.
func (p *Process) WakeChained(data any) {
	p.deliver(data, true)
}

// deliver is the single wake-delivery body behind Wake and WakeChained; the
// two differ only in how an inline continuation's slot is handled (disarm
// before invoking vs keep armed for ChainWait).
func (p *Process) deliver(data any, chained bool) {
	if p.state == StateExited || p.state == StateKilled {
		return
	}
	if !p.waitArmed || p.chainOpen {
		// No wait armed — or the armed wait's wake is being delivered right
		// now (chained delivery in flight): either way this wake is stale.
		return
	}
	if p.waitOpen {
		// Synchronous delivery during registration: recorded, consumed by
		// Await/EndWait without blocking. Stop does not defer this case —
		// the process is executing and will observe the stop at its next
		// real blocking boundary, exactly like the goroutine shell.
		p.waitDone = true
		p.waitData = data
		p.waitArmed = false
		return
	}
	if p.stopped {
		// SIGTSTP semantics: the wake condition (kernel completion, timer)
		// has happened, but the process must not run until SIGCONT.
		p.pendingData = data
		p.hasPending = true
		return
	}
	if !p.inline || !chained {
		p.waitArmed = false
		p.parkReason = ""
		k := p.cont
		p.cont = nil
		if p.inline {
			k(data)
			return
		}
		p.resume(data, false)
		return
	}
	k := p.cont
	p.chainOpen = true
	k(data)
	if p.chainOpen {
		// The continuation neither chained nor armed a new wait: settle the
		// slot to the disarmed state a plain Wake leaves behind.
		p.chainOpen = false
		p.waitArmed = false
		p.cont = nil
		p.parkReason = ""
	}
}

// ChainWait re-arms the wait slot from inside a chained wake delivery
// (WakeChained), reporting whether it did: true means the caller is the
// delivery's continuation and the still-armed slot now carries k — the
// fused, allocation- and churn-free equivalent of BeginWait+EndWait for the
// self-loop shape. False means no chained delivery is in flight and the
// caller must arm normally.
func (p *Process) ChainWait(reason string, k func(any)) bool {
	if !p.chainOpen {
		return false
	}
	p.chainOpen = false
	p.waitGen++
	p.cont = k
	p.parkReason = reason
	return true
}

// ChainReady reports whether a chained wake delivered now would run the
// armed continuation at once: the process is inline, running (alive and not
// stopped), its wait is armed, and neither a registration nor a chained
// delivery is in flight. A wake source that knows what that continuation
// would do may then do it itself (see ChainInPlace).
func (p *Process) ChainReady() bool {
	return p.inline && p.state == StateRunning && p.waitArmed && !p.waitOpen && !p.chainOpen
}

// ChainInPlace is the bookkeeping of a chained wake whose continuation would
// only have re-armed the same wait through ChainWait, done by the wake
// source instead of a delivery: the wait stays armed with its continuation,
// counts as re-armed and now waits for reason. simgpu relaunches an
// imperative step's next kernel part this way. Call only when ChainReady.
func (p *Process) ChainInPlace(reason string) {
	p.waitGen++
	p.parkReason = reason
}

// --- goroutine park/resume (coroutine switch) --------------------------------

// park hands control back to the resumer until a wake deposit arrives. Must
// only be called from the process's own goroutine. Returns the wake payload.
func (p *Process) park(reason string) any {
	if p.killed {
		panic(killedPanic{p})
	}
	p.parked = true
	p.parkReason = reason

	alive := p.yield(struct{}{}) // false: the resumer called stop — a kill
	data := p.wakeMsg
	p.wakeMsg = nil

	p.parked = false
	p.parkReason = ""

	if !alive {
		panic(killedPanic{p})
	}
	return data
}

// resume runs a goroutine process — from its start, or from its park with
// data as the wake payload, or unwinding it when kill is set — and returns
// once it parks again or exits. Must be called from engine-callback context
// (never from the process's own goroutine).
func (p *Process) resume(data any, kill bool) {
	// Exit hooks may trigger wake callbacks for the dying process from its
	// own goroutine (e.g. aborting its in-flight kernels) while the
	// killer's resume waits for the body to return: those find it dead.
	if p.state == StateExited || p.state == StateKilled {
		return
	}

	if kill {
		p.stop()
		return
	}
	p.wakeMsg = data
	p.next()
}

// --- signals (see signal.go for Signal) ------------------------------------

// deliverPending re-delivers a wake deferred by SIGTSTP (engine context).
func (p *Process) deliverPending() {
	if !p.hasPending {
		return
	}
	data := p.pendingData
	p.hasPending = false
	p.pendingData = nil
	p.waitArmed = false
	p.parkReason = ""
	k := p.cont
	p.cont = nil
	if p.inline {
		k(data)
		return
	}
	p.resume(data, false)
}

// --- blocking primitives ---------------------------------------------------

// Sleep parks the process for d of engine time. Zero and negative values
// yield (re-enter the event queue at the current instant).
func (p *Process) Sleep(d time.Duration) {
	p.BeginWait(nil)
	p.rt.eng.ScheduleDetachedBy(p.rt.owner, d, p.wakeFn)
	p.Await("sleep")
}

// DeferSleep is Sleep without the park: d becomes the goroutine body's
// pending host phase (see Process), and the body runs on at the current
// instant. A phase already pending is spent first; d <= 0 sleeps at once, so
// a zero phase still yields.
func (p *Process) DeferSleep(d time.Duration) {
	if p.inline {
		panic("simproc: DeferSleep on an inline process")
	}
	p.spendDeferred()
	if d <= 0 {
		p.Sleep(d)
		return
	}
	p.deferred = d
}

// TakeDeferredSleep hands the pending host phase to the caller, which
// realises it (simgpu's Exec: as a kernel's host lead), and reports 0 when
// none is pending. Called from the body's own goroutine.
func (p *Process) TakeDeferredSleep() time.Duration {
	d := p.deferred
	p.deferred = 0
	return d
}

// spendDeferred sleeps out the pending host phase, if any.
func (p *Process) spendDeferred() {
	if d := p.TakeDeferredSleep(); d > 0 {
		p.Sleep(d)
	}
}

// SleepThen is the inline form of Sleep: k runs after d of engine time.
func (p *Process) SleepThen(d time.Duration, k func(any)) {
	p.BeginWait(k)
	p.rt.eng.ScheduleDetachedBy(p.rt.owner, d, p.wakeFn)
	p.EndWait("sleep")
}

// WaitEvent arms the wait slot, hands the slot's wake function to setup for
// registration, and parks until some engine callback invokes it. The wake
// function must be called exactly once: either synchronously inside setup
// (in which case the process never parks and the data is returned directly)
// or later from engine-callback context. The value passed to wake is
// returned.
func (p *Process) WaitEvent(reason string, setup func(wake func(data any))) any {
	p.BeginWait(nil)
	setup(p.wakeAny)
	return p.Await(reason)
}
