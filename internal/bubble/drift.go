package bubble

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Bubble-trace drift: seeded, virtual-time schedules that reshape the
// reported bubble profile mid-run, the way real training pipelines change
// shape online (TimelyFreeze-style parameter freezing, elastic micro-batch
// resizing, stage rebalancing, stragglers). A DriftSchedule composes with
// the reporter exactly like simfault.Schedule composes with the fault
// hooks: nil means no drift plane at all, an empty schedule wires the
// plane with identity scaling (the zero-drift oracle arm), and events act
// on the engine clock only — never wall time — so same-seed runs are
// bit-identical.

// DriftKind enumerates the supported drift families.
type DriftKind int

const (
	// DriftFreeze models parameter freezing: the frozen stage stops doing
	// backward work, so its own bubbles GROW by (1+Magnitude) while every
	// other stage's bubbles shrink by the same factor (the pipeline
	// re-packs around the idle stage). Frozen-stage memory grows mildly
	// (activations for the frozen layers are no longer kept).
	DriftFreeze DriftKind = iota + 1
	// DriftResize models elastic micro-batch resizing: more micro-batches
	// over the same global batch shrink every stage's bubbles by
	// 1/(1+Magnitude) and per-stage free memory by 1/(1+Magnitude/4).
	// A negative magnitude grows them (fewer micro-batches).
	DriftResize
	// DriftRebalance models a stage re-partition: the named stage sheds
	// layers (bubbles shrink by 1/(1+Magnitude)) and its successor absorbs
	// them (bubbles grow by (1+Magnitude)). Memory is unchanged — the
	// optimizer state moves with the layers, roughly cancelling.
	DriftRebalance
	// DriftStraggler models a straggler/preemption window: the named stage
	// slows down, so its own bubbles shrink by 1/(1+Magnitude) while every
	// stage waiting on it inflates by (1+Magnitude). Straggler events are
	// windowed (Window > 0) — the pipeline recovers when the straggler
	// does.
	DriftStraggler

	driftKindMax = DriftStraggler
)

// String names the kind the way the experiment tables do.
func (k DriftKind) String() string {
	switch k {
	case DriftFreeze:
		return "freeze-stage"
	case DriftResize:
		return "resize-microbatch"
	case DriftRebalance:
		return "rebalance-stages"
	case DriftStraggler:
		return "straggler"
	default:
		return fmt.Sprintf("drift(%d)", int(k))
	}
}

// ParseDriftKind is String's inverse.
func ParseDriftKind(s string) (DriftKind, error) {
	for k := DriftKind(1); k <= driftKindMax; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("bubble: unknown drift kind %q", s)
}

// AllDriftKinds lists every kind in declaration order.
func AllDriftKinds() []DriftKind {
	out := make([]DriftKind, 0, int(driftKindMax))
	for k := DriftKind(1); k <= driftKindMax; k++ {
		out = append(out, k)
	}
	return out
}

// DriftEvent is one profile reshape on the virtual clock.
type DriftEvent struct {
	// At is the engine time the drift takes effect.
	At time.Duration
	// Kind selects the drift family.
	Kind DriftKind
	// Stage targets the affected stage (ignored by DriftResize).
	Stage int
	// Magnitude is the drift strength f: affected durations scale by
	// (1+f) or 1/(1+f) per kind. Values are clamped so 1+f stays >= 1/8.
	Magnitude float64
	// Window bounds windowed kinds (straggler); 0 means permanent.
	Window time.Duration
}

// DriftSchedule is a seeded list of drift events. The zero value (empty
// schedule) wires the drift plane with identity scaling.
type DriftSchedule struct {
	Seed   int64
	Events []DriftEvent
}

// Validate refuses events the Drifter cannot evaluate for a `stages`-stage
// pipeline: an unknown kind, a non-finite magnitude, a negative window, or a
// stage outside [0, stages) on a kind that targets one (every kind but
// DriftResize).
func (s *DriftSchedule) Validate(stages int) error {
	for i, ev := range s.Events {
		switch {
		case ev.Kind < 1 || ev.Kind > driftKindMax:
			return fmt.Errorf("bubble: drift event %d: unknown kind %d", i, int(ev.Kind))
		case math.IsNaN(ev.Magnitude) || math.IsInf(ev.Magnitude, 0):
			return fmt.Errorf("bubble: drift event %d: non-finite magnitude %v", i, ev.Magnitude)
		case ev.Window < 0:
			return fmt.Errorf("bubble: drift event %d: negative window %v", i, ev.Window)
		case ev.Kind != DriftResize && (ev.Stage < 0 || ev.Stage >= stages):
			return fmt.Errorf("bubble: drift event %d: %v targets stage %d of %d", i, ev.Kind, ev.Stage, stages)
		}
	}
	return nil
}

// GenerateDrift builds a reproducible random schedule: n events over
// [0,horizon], drawn from kinds (nil = all kinds) across `stages` pipeline
// stages. Magnitudes are drawn from {0.5, 1.0, ..., 3.0}; straggler
// windows span [horizon/8, horizon/4).
func GenerateDrift(seed int64, horizon time.Duration, n int, kinds []DriftKind, stages int) *DriftSchedule {
	if len(kinds) == 0 {
		kinds = AllDriftKinds()
	}
	if stages < 1 {
		stages = 1
	}
	rng := rand.New(rand.NewSource(seed))
	s := &DriftSchedule{Seed: seed}
	for i := 0; i < n; i++ {
		ev := DriftEvent{
			At:        time.Duration(rng.Int63n(int64(horizon) + 1)),
			Kind:      kinds[rng.Intn(len(kinds))],
			Stage:     rng.Intn(stages),
			Magnitude: 0.5 + 0.5*float64(rng.Intn(6)),
		}
		if ev.Kind == DriftStraggler {
			lo := int64(horizon) / 8
			ev.Window = time.Duration(lo + rng.Int63n(lo+1))
		}
		s.Events = append(s.Events, ev)
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s
}

// Drift-scale clamps: composed duration scales stay within [1/64, 64] and
// memory scales within [1/8, 8], so no composition of events can zero a
// stage out or overflow it.
const (
	minDurScale = 1.0 / 64
	maxDurScale = 64.0
	minMemScale = 1.0 / 8
	maxMemScale = 8.0
)

// Drifter evaluates a schedule: given a stage and the current engine time
// it yields the duration and memory scale factors for that stage's
// reported bubbles, composing all active events multiplicatively. A nil
// Drifter (or one over an empty schedule) is the identity — ScaleAt
// returns exactly (1, 1) with no floating-point work, which is what keeps
// the zero-drift oracle bit-identical.
type Drifter struct {
	events []DriftEvent
	stages int
}

// NewDrifter compiles a schedule for a `stages`-stage pipeline. Events are
// evaluated in At order; the schedule is copied and re-sorted defensively.
func NewDrifter(s *DriftSchedule, stages int) *Drifter {
	d := &Drifter{stages: stages}
	if s != nil {
		d.events = append(d.events, s.Events...)
		sort.SliceStable(d.events, func(i, j int) bool { return d.events[i].At < d.events[j].At })
	}
	return d
}

// ScaleAt reports the (duration, memory) scale factors for stage at engine
// time now. Inactive schedules return exactly (1, 1).
func (d *Drifter) ScaleAt(stage int, now time.Duration) (dur, mem float64) {
	dur, mem = 1, 1
	if d == nil {
		return
	}
	for i := range d.events {
		ev := &d.events[i]
		if ev.At > now {
			break // sorted: nothing later is active
		}
		if ev.Window > 0 && now >= ev.At+ev.Window {
			continue
		}
		f := ev.Magnitude
		if f < -0.875 {
			f = -0.875 // keep 1+f >= 1/8
		}
		g := 1 + f
		switch ev.Kind {
		case DriftFreeze:
			if stage == ev.Stage {
				dur *= g
				mem *= 1 + f/4
			} else {
				dur /= g
			}
		case DriftResize:
			dur /= g
			mem /= 1 + f/4
		case DriftRebalance:
			if stage == ev.Stage {
				dur /= g
			} else if d.stages > 0 && stage == (ev.Stage+1)%d.stages {
				dur *= g
			}
		case DriftStraggler:
			if stage == ev.Stage {
				dur /= g
			} else {
				dur *= g
			}
		}
	}
	if dur < minDurScale {
		dur = minDurScale
	} else if dur > maxDurScale {
		dur = maxDurScale
	}
	if mem < minMemScale {
		mem = minMemScale
	} else if mem > maxMemScale {
		mem = maxMemScale
	}
	return
}
