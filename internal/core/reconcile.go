package core

import (
	"slices"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/sidetask"
	"freeride/internal/simtime"
)

// AddBubble queues a bubble report for the worker serving its stage
// (step ➎: "add bubbles from pipeline training system to side task
// manager"). The report is inserted in Start order and the worker's
// reconcile schedule is updated.
func (m *Manager) AddBubble(b bubble.Bubble) {
	m.stats.BubblesAdded++
	m.stats.BubbleTimeTotal += b.Duration
	for _, w := range m.workers {
		if w.stage != b.Stage {
			continue
		}
		if m.opts.Replan != nil {
			// Feed the worker's drift estimator. Detection re-plans inline: the
			// report, the detection and the demote/admit decisions all land
			// on the same engine instant, before the drifted bubbles they
			// describe begin (reports precede their bubbles).
			w.lastMem = b.MemAvailable
			if w.est != nil {
				if dir := w.est.Observe(b.Duration); dir != bubble.DriftNone {
					m.stats.DriftEvents++
					m.replan(w)
				}
			}
		}
		if !w.alive {
			// A dead worker never revives and nothing pops its queue.
			return
		}
		pb := pendingBubble{b: b, visibleAt: m.eventInstant(m.eng.Now())}
		w.pending.Push(pb)
		for i := w.pending.Len() - 1; i > 0 && w.pending.At(i-1).b.Start > b.Start; i-- {
			*w.pending.At(i) = *w.pending.At(i - 1)
			*w.pending.At(i - 1) = pb
		}
		m.wake(w)
		return
	}
	// No worker for this stage: the bubble goes unharvested.
}

// --- timing: the Tick grid ------------------------------------------------
//
// Algorithm 2 is a loop with period Tick: it acts at epoch+k*Tick, k ≥ 1,
// and an event processed at engine-time t is first seen at the grid instant
// strictly after t (a pass sharing t's timestamp does not see it). The loop
// is not run as a timer per Tick; each worker's reconciles are scheduled for
// exactly the grid instants at which a pass would find something to do, so
// every action carries the timestamp the literal loop would give it. That
// identity assumes control-plane messages are in flight for less than one
// Tick (RPC latency < Tick, the shipped configurations).

// eventInstant reports the first instant the loop may act on an event
// processed at engine-time t.
func (m *Manager) eventInstant(t time.Duration) time.Duration {
	k := (max(t, m.epoch) - m.epoch) / m.opts.Tick
	return m.epoch + (k+1)*m.opts.Tick
}

// deadlineInstant reports the first instant the loop may act on a
// known deadline d (a bubble start or end): the first grid instant at or
// after d.
func (m *Manager) deadlineInstant(d time.Duration) time.Duration {
	k := max(1, (d-m.epoch+m.opts.Tick-1)/m.opts.Tick)
	return m.epoch + k*m.opts.Tick
}

// --- reconcile schedule ---------------------------------------------------

// reconcile is the shared timer callback: one full Algorithm-2 pass for w at
// the current (grid-aligned) instant, then re-arm whatever deadlines remain.
func (m *Manager) reconcile(w *workerMeta) {
	if !m.running || !w.alive {
		return
	}
	now := m.eng.Now()
	m.reconcileWorker(w, now)
	m.armWorker(w, now)
}

// wake notes a control-plane event for w: a reconcile is scheduled at
// the first grid instant that may act on it, and the deadline timers are
// refreshed. No-op while the manager is stopped (Start arms the initial
// pass).
func (m *Manager) wake(w *workerMeta) {
	if !m.running || !w.alive {
		return
	}
	now := m.eng.Now()
	m.kick(w, m.eventInstant(now))
	m.armWorker(w, now)
}

// kick arms w's kick timer for instant at, unless an earlier (or
// equal) kick is already pending.
func (m *Manager) kick(w *workerMeta, at time.Duration) {
	if t := w.kickTimer; t.Pending() && t.When() <= at {
		return
	}
	w.kickTimer = m.eng.RescheduleBy(simtime.OwnerManager, w.kickTimer, at-m.eng.Now(), w.reconcileFn)
}

// armWorker refreshes w's two deadline timers from its state: the
// current bubble's end (the pause point) and the front pending bubble's
// adoption instant. Both reuse their handles; re-arming an unchanged
// deadline is a no-op.
func (m *Manager) armWorker(w *workerMeta, now time.Duration) {
	if !m.running || !w.alive {
		return
	}
	if w.hasBubble {
		w.endTimer = m.arm(w.endTimer, m.deadlineInstant(w.bubble.End()), w.reconcileFn)
	}
	if w.pending.Len() > 0 {
		front := w.pending.At(0)
		at := max(front.visibleAt, m.deadlineInstant(front.b.Start))
		// An already-adoptable front (at <= now) is blocked only by the
		// current bubble; the end-timer pass adopts it, so no timer is due.
		if at > now {
			w.startTimer = m.arm(w.startTimer, at, w.reconcileFn)
		}
	}
	// An idle worker with queued tasks promotes the next one on the next
	// grid instant (Algorithm 2's queue pop).
	if w.current == nil && len(w.queue) > 0 {
		m.kick(w, m.eventInstant(now))
	}
}

// arm re-arms t (which the manager exclusively owns) for instant at,
// reusing the handle; a pending timer already set to at is left alone.
// Reschedule clamps a past instant to Now, so the compare with When is exact
// only because neither caller passes one: the start timer is armed only for
// at > now, and the end timer for the grid instant at or after the end of
// the current bubble, which is adopted only before its end and dropped by
// the first pass at or after it.
func (m *Manager) arm(t *simtime.Timer, at time.Duration, fn func()) *simtime.Timer {
	if t.Pending() && t.When() == at {
		return t
	}
	return m.eng.RescheduleBy(simtime.OwnerManager, t, at-m.eng.Now(), fn)
}

// --- Algorithm 2 ----------------------------------------------------------

// reconcileWorker is the per-worker body of Algorithm 2.
func (m *Manager) reconcileWorker(w *workerMeta, now time.Duration) {
	// Lines 4–8: current bubble ended → pause the current task.
	if w.hasBubble && now >= w.bubble.End() {
		if w.current != nil && w.current.serving {
			m.accountServed(w.current, &w.bubble, w.bubble.End())
			m.goCall(callPause, w, w.current)
		}
		w.hasBubble = false
	}
	// Lines 9–10: adopt a newly begun bubble.
	if !w.hasBubble {
		m.adoptBubble(w, now)
	}
	// Lines 11–15: pick the next task if idle.
	if w.current == nil {
		if len(w.queue) == 0 {
			return
		}
		// Compact in place (Delete zeroes the vacated tail slot): the queue is a
		// handful of records at most — one on every benchmark workload — so the
		// copy is free, whereas re-slicing (queue[1:]) would shed a slot of
		// capacity per pop and keep the promoted record reachable.
		w.current = w.queue[0]
		w.queue = slices.Delete(w.queue, 0, 1)
	}
	cur := w.current
	if cur.exited {
		w.current = nil
		return
	}
	// Lines 16–17: initialize a created task.
	if cur.state == sidetask.StateCreated && !cur.initSent {
		m.goCall(callInit, w, cur)
		return
	}
	// Lines 18–19: start a paused task into the current bubble.
	if w.hasBubble && cur.state == sidetask.StatePaused && cur.startedSeq != w.bubbleSeq {
		// SLO admission guard (serving workload): skip the start when the
		// bubble's remaining time falls short of SLOGuard × the task's pause
		// fit — the task would overrun the predicted batch arrival. The
		// bubble stays adopted; a later reconcile round (or the next
		// bubble) retries.
		if guard := m.opts.SLOGuard; guard > 0 {
			fit := cur.spec.Profile.FitTime()
			if float64(w.bubble.End()-now) < guard*float64(fit) {
				m.stats.SLODeferred++
				return
			}
		}
		m.goCall(callStart, w, cur)
	}
}

// adoptBubble makes the front pending bubble w's current one if it has
// begun, is visible, and has not ended; expired fronts are dropped. pending
// is Start-ordered, so an ineligible front means nothing behind it is
// eligible either.
func (m *Manager) adoptBubble(w *workerMeta, now time.Duration) {
	for w.pending.Len() > 0 {
		if front := w.pending.At(0); now < front.visibleAt || front.b.Start > now {
			return // front not yet adoptable
		}
		pb := w.pending.Pop()
		if now >= pb.b.End() {
			m.stats.BubblesExpired++
			continue
		}
		m.adoptions++
		w.bubble, w.hasBubble, w.bubbleSeq = pb.b, true, m.adoptions
		return
	}
}

// accountServed credits rec with the part of bubble b it has served
// up to until — the bubble's end at a pause, now at a demotion.
func (m *Manager) accountServed(rec *taskRecord, b *bubble.Bubble, until time.Duration) {
	if !rec.serving {
		return
	}
	if served := min(until-rec.servedFrom, b.Duration); served > 0 {
		m.stats.BubbleTimeServed += served
		rec.servedSinceCkpt += served
	}
}
