// Package simfault is FreeRide's deterministic fault-injection plane: a
// seeded, virtual-time-driven schedule of control-plane and data-plane
// faults (worker crashes, link severs, RPC drop/delay windows, kernel
// failures, wedged reporters) delivered through closure hooks that the
// session wires into freerpc, simgpu and core.Worker.
//
// The package deliberately knows nothing about those components: a fault
// kind maps to a hook signature, and whoever assembles the system decides
// what the hook does. That keeps simfault dependency-free (only simtime)
// and makes the zero-fault oracle cheap to state: with every hook wired and
// an empty schedule, nothing in the system observes the fault plane at all.
//
// Determinism: Generate derives the whole schedule from a seed via its own
// rng, events fire on the engine clock, and injectors share the engine's
// single-dispatch guarantee — so two runs with the same seed see byte-equal
// fault sequences at identical virtual instants.
package simfault

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"freeride/internal/simtime"
)

// Kind enumerates the injectable fault kinds.
type Kind int

const (
	// KindCrashWorker hard-kills a worker: its tasks' containers die, its
	// state is dropped, and its control link closes (a failed host).
	KindCrashWorker Kind = iota + 1
	// KindSeverLink closes the manager<->worker control link without
	// touching the worker itself (a network partition).
	KindSeverLink
	// KindDropRPC silently discards every frame on the control link for a
	// window (an asymmetric partition / overloaded switch).
	KindDropRPC
	// KindDelayRPC adds extra one-way latency to the control link for a
	// window (congestion).
	KindDelayRPC
	// KindFailKernel arms the worker's device so the next side-task kernel
	// launch completes with an error (an ECC fault / Xid reported to the
	// side task, never to the training job).
	KindFailKernel
	// KindWedgeTask suppresses the worker's state/exit notifications for a
	// window: the worker keeps running but stops reporting (a wedged
	// reporter thread).
	KindWedgeTask

	kindMax
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCrashWorker:
		return "crash-worker"
	case KindSeverLink:
		return "sever-link"
	case KindDropRPC:
		return "drop-rpc"
	case KindDelayRPC:
		return "delay-rpc"
	case KindFailKernel:
		return "fail-kernel"
	case KindWedgeTask:
		return "wedge-task"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind is the inverse of String.
func ParseKind(s string) (Kind, error) {
	for k := KindCrashWorker; k < kindMax; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("simfault: unknown fault kind %q", s)
}

// AllKinds lists every injectable kind, in enum order.
func AllKinds() []Kind {
	ks := make([]Kind, 0, int(kindMax)-1)
	for k := KindCrashWorker; k < kindMax; k++ {
		ks = append(ks, k)
	}
	return ks
}

// Event is one scheduled fault.
type Event struct {
	// At is the virtual instant the fault fires, relative to engine epoch.
	At time.Duration
	// Kind selects the fault.
	Kind Kind
	// Worker indexes the target worker (and its link/device).
	Worker int
	// Window bounds the fault's duration for windowed kinds (drop-rpc,
	// delay-rpc, wedge-task); ignored by instantaneous kinds.
	Window time.Duration
	// Extra is the added one-way latency for delay-rpc; ignored otherwise.
	Extra time.Duration
}

// Schedule is a full fault plan. A non-nil Schedule with no events is the
// zero-fault oracle arm: every hook wired, nothing injected.
type Schedule struct {
	// Seed records the generator seed (informational; Generate sets it).
	Seed int64
	// Events fire in At order. Generate returns them sorted; hand-built
	// schedules are sorted by the injector at Start.
	Events []Event
}

// Generate derives a schedule from a seed: n events uniform over the
// horizon, kinds drawn uniformly from kinds, targets uniform over workers.
// Windowed kinds get windows in [horizon/20, horizon/5] and delay-rpc an
// extra latency in [1ms, 5ms]. Same inputs produce byte-equal schedules.
func Generate(seed int64, horizon time.Duration, n int, kinds []Kind, workers int) *Schedule {
	if len(kinds) == 0 {
		kinds = AllKinds()
	}
	if workers < 1 {
		workers = 1
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed}
	for i := 0; i < n; i++ {
		ev := Event{
			At:     time.Duration(rng.Int63n(int64(horizon) + 1)),
			Kind:   kinds[rng.Intn(len(kinds))],
			Worker: rng.Intn(workers),
		}
		if ev.Kind.windowed() {
			lo, hi := int64(horizon)/20, int64(horizon)/5
			ev.Window = time.Duration(lo + rng.Int63n(hi-lo+1))
		}
		if ev.Kind == KindDelayRPC {
			ev.Extra = time.Millisecond + time.Duration(rng.Int63n(int64(4*time.Millisecond)+1))
		}
		s.Events = append(s.Events, ev)
	}
	sortEvents(s.Events)
	return s
}

// windowed reports whether the kind lasts for its event's Window.
func (k Kind) windowed() bool {
	return k == KindDropRPC || k == KindDelayRPC || k == KindWedgeTask
}

// Validate refuses events the injector cannot deliver as written to a
// `workers`-worker session: an unknown kind, a negative At, a worker outside
// [0, workers), a negative window on a windowed kind (drop-rpc, delay-rpc,
// wedge-task), or a negative extra latency on delay-rpc, which would cut the
// link's latency below its base.
func (s *Schedule) Validate(workers int) error {
	for i, ev := range s.Events {
		switch {
		case ev.Kind < 1 || ev.Kind >= kindMax:
			return fmt.Errorf("simfault: fault event %d: unknown kind %d", i, int(ev.Kind))
		case ev.At < 0:
			return fmt.Errorf("simfault: fault event %d: %v at negative instant %v", i, ev.Kind, ev.At)
		case ev.Worker < 0 || ev.Worker >= workers:
			return fmt.Errorf("simfault: fault event %d: %v targets worker %d of %d", i, ev.Kind, ev.Worker, workers)
		case ev.Kind.windowed() && ev.Window < 0:
			return fmt.Errorf("simfault: fault event %d: %v with negative window %v", i, ev.Kind, ev.Window)
		case ev.Kind == KindDelayRPC && ev.Extra < 0:
			return fmt.Errorf("simfault: fault event %d: %v with negative extra latency %v", i, ev.Kind, ev.Extra)
		}
	}
	return nil
}

// sortEvents orders events by At, ties broken by insertion order (stable).
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
}

// Hooks is the per-worker injection surface. Any nil hook makes that kind a
// counted no-op for the worker. Hooks run on the engine dispatch, so they
// may touch engine-owned state directly.
type Hooks struct {
	// CrashWorker hard-kills the worker (drop state, close link).
	CrashWorker func()
	// SeverLink closes the control link only.
	SeverLink func()
	// DropRPC discards link frames for the window.
	DropRPC func(window time.Duration)
	// DelayRPC adds extra one-way link latency for the window.
	DelayRPC func(window, extra time.Duration)
	// FailKernel arms the device to fail the next side-task kernel.
	FailKernel func()
	// WedgeTask suppresses the worker's notifications for the window.
	WedgeTask func(window time.Duration)
}

// Stats counts what the injector actually delivered.
type Stats struct {
	// Injected counts events whose hook ran, by kind (index Kind).
	Injected [int(kindMax)]uint64
	// Skipped counts events with no bound target or nil hook.
	Skipped uint64
}

// Total sums Injected over all kinds.
func (s Stats) Total() uint64 {
	var n uint64
	for _, c := range s.Injected {
		n += c
	}
	return n
}

// Count reports the injected count for one kind.
func (s Stats) Count(k Kind) uint64 {
	if k <= 0 || k >= kindMax {
		return 0
	}
	return s.Injected[int(k)]
}

// Injector schedules a Schedule's events on an engine and dispatches them
// to per-worker hooks. Bind all workers, then Start once; both are called
// during assembly (before the engine runs), so no locking is needed — after
// Start everything happens inside engine callbacks.
type Injector struct {
	eng   *simtime.Virtual
	sched *Schedule
	hooks map[int]Hooks
	stats Stats
}

// NewInjector builds an injector for sched on eng.
func NewInjector(eng *simtime.Virtual, sched *Schedule) *Injector {
	return &Injector{eng: eng, sched: sched, hooks: make(map[int]Hooks)}
}

// Bind attaches the hook set for one worker index.
func (in *Injector) Bind(worker int, h Hooks) { in.hooks[worker] = h }

// Start schedules every event. Events whose At is already past fire as
// soon as possible (delay 0), preserving schedule order.
func (in *Injector) Start() {
	evs := append([]Event(nil), in.sched.Events...)
	sortEvents(evs)
	now := in.eng.Now()
	for _, ev := range evs {
		ev := ev
		in.eng.Schedule(ev.At-now, "", func() { in.fire(ev) })
	}
}

// fire dispatches one event to its worker's hook.
func (in *Injector) fire(ev Event) {
	h, ok := in.hooks[ev.Worker]
	if !ok {
		in.stats.Skipped++
		return
	}
	ran := true
	switch ev.Kind {
	case KindCrashWorker:
		if h.CrashWorker != nil {
			h.CrashWorker()
		} else {
			ran = false
		}
	case KindSeverLink:
		if h.SeverLink != nil {
			h.SeverLink()
		} else {
			ran = false
		}
	case KindDropRPC:
		if h.DropRPC != nil {
			h.DropRPC(ev.Window)
		} else {
			ran = false
		}
	case KindDelayRPC:
		if h.DelayRPC != nil {
			h.DelayRPC(ev.Window, ev.Extra)
		} else {
			ran = false
		}
	case KindFailKernel:
		if h.FailKernel != nil {
			h.FailKernel()
		} else {
			ran = false
		}
	case KindWedgeTask:
		if h.WedgeTask != nil {
			h.WedgeTask(ev.Window)
		} else {
			ran = false
		}
	default:
		ran = false
	}
	if ran {
		in.stats.Injected[int(ev.Kind)]++
	} else {
		in.stats.Skipped++
	}
}

// Stats returns the delivery counters accumulated so far.
func (in *Injector) Stats() Stats { return in.stats }
