package simtime

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestFoldNeedsAQueuedLaterEvent pins Hold's conditions on a bare engine: an
// empty queue never folds; an event due at or before the instant refuses it,
// one due 1ns after it allows it; an event queued at or before the instant
// after the Hold makes Fold refuse; and under RunUntil nothing past the
// horizon is held, while outside one any instant is.
func TestFoldNeedsAQueuedLaterEvent(t *testing.T) {
	v := NewVirtual()
	if v.Hold(5) {
		t.Fatal("Hold on an empty queue")
	}
	probe := v.ScheduleBy(OwnerOther, 10, func() {})
	for when, want := range map[time.Duration]bool{9: true, 10: false, 11: false} {
		if got := v.Hold(when); got != want {
			t.Errorf("Hold(%v) beside an event at 10: %v, want %v", when, got, want)
		}
		v.Unhold()
	}
	probe.Cancel()
	for _, late := range []time.Duration{5, 6} {
		v := NewVirtual()
		v.ScheduleBy(OwnerOther, time.Hour, func() {})
		if !v.Hold(5) {
			t.Fatal("Hold(5) beside an event an hour out")
		}
		v.ScheduleDetached(late, "late", func() {})
		if got := v.Fold(OwnerSideTask, 5, true); got != (late > 5) {
			t.Errorf("Fold after an event queued at %v: %v", late, got)
		}
	}
	v.ScheduleBy(OwnerOther, time.Hour, func() {})
	var held []bool
	v.ScheduleBy(OwnerOther, 20, func() {
		held = append(held, v.Hold(29), v.Hold(30), v.Hold(31))
		v.Unhold()
	})
	v.RunUntil(30)
	v.ScheduleBy(OwnerOther, 10, func() {
		held = append(held, v.Hold(time.Minute))
		v.Unhold()
	})
	v.Step()
	if want := []bool{true, true, false, true}; !slices.Equal(held, want) {
		t.Errorf("Hold under RunUntil(30) at 29, 30, 31, then under Step at a minute: %v, want %v", held, want)
	}
}

// foldEvent is one callback run of TestFoldMatchesArmedTimer: who ran, when,
// and how many of the chain's wakes the dispatch order had passed.
type foldEvent struct {
	id     int
	now    time.Duration
	passed int
}

// foldChild is one event a chain link schedules: detached or joined, at
// delay.
type foldChild struct {
	join  bool
	delay time.Duration
}

// foldLink is one link of TestFoldMatchesArmedTimer's chain: the children it
// schedules first, then the arm of the next link gap later — a plain arm,
// the link's last act, or with lead > 0 an arm as of a wake lead ahead,
// followed by more children.
type foldLink struct {
	before, after []foldChild
	gap, lead     time.Duration
}

// foldDelays collide with the chain's instants and each other on a 1µs grid,
// with one delay past the wheel horizon.
var foldDelays = []time.Duration{0, 0, 1, time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond, 300 * time.Millisecond}

// runFoldChain plays one chain of links from instant 0 among background
// events, folding each link into the one before it where the engine allows
// (fold) or always arming a timer for it, and advances the engine by Step
// (horizons nil) or by RunUntil to each horizon. It returns every callback
// run with its instant, the clock after each advance, and the dispatch and
// fold counts.
func runFoldChain(links []foldLink, background []time.Duration, horizons []time.Duration, fold bool) (trace []foldEvent, clocks []time.Duration, dispatched, folded uint64) {
	v := NewVirtual()
	wakes := make([]Timer, len(links))
	record := func(id int) {
		passed := 0
		for i := range wakes {
			if wakes[i].Passed() {
				passed++
			}
		}
		trace = append(trace, foldEvent{id, v.Now(), passed})
	}
	id := 0
	child := func(c foldChild) {
		id++
		me := id
		fn := func() { record(me) }
		if c.join {
			v.ScheduleJoin(OwnerRPC, c.delay, fn)
		} else {
			v.ScheduleDetachedBy(OwnerRPC, c.delay, fn)
		}
	}
	for _, at := range background {
		child(foldChild{delay: at})
	}
	var timer *Timer
	n := 0
	var link func()
	link = func() {
		for {
			record(-1 - n)
			if n == len(links) {
				return
			}
			l := links[n]
			n++
			next := v.Now() + l.gap
			for _, c := range l.before {
				child(c)
			}
			if l.lead == 0 {
				if fold && v.Hold(next) && v.Fold(OwnerSideTask, next, true) {
					continue
				}
				timer = v.RescheduleBy(OwnerSideTask, timer, l.gap, link)
				return
			}
			w := v.Reserve(&wakes[n-1], l.lead)
			held := fold && v.Hold(next)
			if !held {
				timer = v.RescheduleAs(OwnerSideTask, timer, w, 0, next, link)
			}
			for _, c := range l.after {
				child(c)
			}
			if !held {
				return
			}
			if v.Fold(OwnerSideTask, next, false) {
				continue
			}
			timer = v.RescheduleAs(OwnerSideTask, timer, w, 0, next, link)
			return
		}
	}
	timer = v.ScheduleBy(OwnerSideTask, 0, link)
	if horizons == nil {
		for v.Step() {
		}
		clocks = append(clocks, v.Now())
	}
	for _, h := range horizons {
		v.RunUntil(h)
		clocks = append(clocks, v.Now())
	}
	by := v.FoldedBy()
	return trace, clocks, v.Dispatched(), by[OwnerSideTask]
}

// TestFoldMatchesArmedTimer is Fold's differential: a chain of events, each
// arming the next one — as its last act, or as of a wake with more events
// scheduled after the arm, as simgpu's host leads arm — among events that
// collide with the chain's instants, runs every callback at the same
// instant and in the same order whether each link that may fold is folded
// into the one before it or armed as a timer, under Step and under RunUntil
// to random horizons, which also stop the clock at the same instants. Every
// fold is one dispatch fewer.
func TestFoldMatchesArmedTimer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	children := func() []foldChild {
		cs := make([]foldChild, rng.Intn(3))
		for i := range cs {
			cs[i] = foldChild{join: rng.Intn(2) == 0, delay: foldDelays[rng.Intn(len(foldDelays))]}
		}
		return cs
	}
	var folds uint64
	for iter := 0; iter < 500; iter++ {
		links := make([]foldLink, 1+rng.Intn(20))
		for i := range links {
			l := &links[i]
			l.gap = time.Duration(rng.Intn(4)) * time.Microsecond
			if rng.Intn(2) == 0 {
				l.gap++
			}
			if rng.Intn(2) == 0 {
				l.lead = 1 + time.Duration(rng.Int63n(int64(l.gap)+1))
				l.gap = max(l.gap, l.lead)
				l.after = children()
			}
			// Mostly nothing, so that links fold.
			if rng.Intn(3) == 0 {
				l.before = children()
			}
		}
		background := make([]time.Duration, rng.Intn(4))
		for i := range background {
			background[i] = time.Duration(rng.Intn(60)) * time.Microsecond / 2
		}
		if rng.Intn(4) != 0 {
			background = append(background, time.Hour)
		}
		var horizons []time.Duration
		if iter%2 == 1 {
			for h := time.Duration(0); h < 80*time.Microsecond; {
				h += time.Duration(rng.Intn(8)) * time.Microsecond / 2
				horizons = append(horizons, h)
			}
			horizons = append(horizons, 2*time.Hour)
		}
		got, gotClocks, dispatched, folded := runFoldChain(links, background, horizons, true)
		want, wantClocks, ref, refFolded := runFoldChain(links, background, horizons, false)
		if !slices.Equal(got, want) || !slices.Equal(gotClocks, wantClocks) {
			t.Fatalf("iteration %d: folding changed the run\nfolded %v, clocks %v\narmed  %v, clocks %v", iter, got, gotClocks, want, wantClocks)
		}
		if refFolded != 0 || dispatched+folded != ref {
			t.Fatalf("iteration %d: %d dispatched and %d folded, %d dispatched armed (%d folded)", iter, dispatched, folded, ref, refFolded)
		}
		folds += folded
	}
	if folds == 0 {
		t.Fatal("no link folded")
	}
}

// TestPeekedMinimumFollowsTheQueue pins the kept minimum (next) against the
// two changes that can displace it without a dispatch: the peeked event
// re-armed later, and a wake passed by RunUntil whose armed timer's key
// falls ahead of it. Each time the next Step must run the true minimum.
func TestPeekedMinimumFollowsTheQueue(t *testing.T) {
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }

	v := NewVirtual()
	a := v.ScheduleBy(OwnerOther, 10, note("a"))
	v.ScheduleBy(OwnerOther, 20, note("b"))
	v.RunUntil(5) // peeks a
	v.RescheduleBy(OwnerOther, a, 25, note("a"))
	v.Step()
	if want := []string{"b"}; !slices.Equal(order, want) {
		t.Errorf("after the peeked event moved later, Step ran %v, want %v", order, want)
	}

	order = nil
	v = NewVirtual()
	var w1, w2 Timer
	v.Reserve(&w1, 10)
	v.Reserve(&w2, 12)
	// Both arms sort after every real seq until their wakes pass; c is
	// armed first, so the min scan finds it first.
	v.RescheduleAs(OwnerOther, nil, &w2, 0, 15, note("c"))
	v.RescheduleAs(OwnerOther, nil, &w1, 0, 15, note("b"))
	v.RunUntil(11) // peeks c, then passes w1: b's key falls ahead of c's
	v.Step()
	v.Step()
	if want := []string{"b", "c"}; !slices.Equal(order, want) {
		t.Errorf("arms as of wakes passed in order ran %v, want %v", order, want)
	}
}
