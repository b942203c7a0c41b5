package core

import (
	"slices"
	"strings"
	"time"

	"freeride/internal/fifo"
	"freeride/internal/sidetask"
	"freeride/internal/simgpu"
	"freeride/internal/simtime"
)

// workerLost declares a worker dead — shared by the link-close path
// and the lease-expiry path. With recovery disabled (Lease == 0) its tasks
// are retired forever, the pre-lease behaviour; with a lease configured
// each orphaned task enters the backoff/re-place cycle.
func (m *Manager) workerLost(w *workerMeta, cause string) {
	if !w.alive {
		return
	}
	w.alive = false
	if m.running {
		m.stats.WorkersLost++
	}
	orphans := w.queue
	if w.current != nil {
		orphans = append([]*taskRecord{w.current}, orphans...)
	}
	w.current = nil
	w.queue = nil
	w.hasBubble = false
	w.pending = fifo.Queue[pendingBubble]{}
	w.cancelTimers()
	for _, rec := range orphans {
		if rec.exited || rec.parked {
			continue
		}
		if m.opts.Lease <= 0 || !m.running {
			m.retire(rec, cause)
			continue
		}
		m.planRecovery(rec, cause)
	}
}

// planRecovery moves rec into the backoff/re-place cycle after its
// deployment died (worker lost, create failure, injected kernel fault). The
// attempt counter is charged here; an exhausted budget parks the task
// instead of thrashing. All timing comes from the engine clock plus the
// seeded rng — never wall time — so same-seed fault runs are bit-identical.
func (m *Manager) planRecovery(rec *taskRecord, cause string) {
	m.stats.LostWork += rec.servedSinceCkpt
	rec.servedSinceCkpt = 0
	rec.serving = false
	rec.startedSeq = 0
	rec.initSent = false
	rec.state = sidetask.StateSubmitted
	rec.incarnation++
	rec.restarts++
	if rec.restarts > m.opts.MaxRestarts {
		rec.parked = true
		rec.state = sidetask.StateStopped
		rec.exitErr = cause + " (retry budget exhausted; parked)"
		m.stats.ParkedTasks++
		return
	}
	backoff := DefaultRetryBackoff << min(rec.restarts-1, 16)
	delay := backoff + time.Duration(m.rng.Int63n(int64(backoff/2)+1))
	rec.retryTimer = m.eng.RescheduleBy(simtime.OwnerManager, rec.retryTimer, delay, func() { m.replaceTask(rec) })
}

// replaceTask re-runs Algorithm 1 for a recovering task when its backoff
// expires. No eligible worker re-enters the backoff cycle (consuming another
// attempt) rather than busy-retrying.
func (m *Manager) replaceTask(rec *taskRecord) {
	if !m.running || rec.exited || rec.parked || m.placed(rec) {
		return
	}
	selected := m.place(rec.spec)
	if selected < 0 {
		m.planRecovery(rec, "no eligible worker")
		return
	}
	m.stats.Replacements++
	if !rec.everRestarted {
		rec.everRestarted = true
		m.stats.RestartedTasks++
	}
	m.deploy(rec, selected)
}

// placed reports whether rec is attached (current or queued) to a live
// worker.
func (m *Manager) placed(rec *taskRecord) bool {
	w := m.workers[rec.workerIdx]
	return w.alive && (w.current == rec || slices.Contains(w.queue, rec))
}

// detach removes rec from its worker's current/queue slots.
func (m *Manager) detach(rec *taskRecord) {
	w := m.workers[rec.workerIdx]
	if w.current == rec {
		w.current = nil
	} else if i := slices.Index(w.queue, rec); i >= 0 {
		w.queue = slices.Delete(w.queue, i, i+1)
	}
}

// isInfraFault classifies a task exit: only injected infrastructure faults
// are recoverable. Every other exit — clean completion, a task bug, a grace
// kill — is the task's own outcome and stays terminal, which is what keeps
// zero-fault lease-enabled runs bit-identical to the lease-free oracle.
func isInfraFault(exitErr string) bool {
	return strings.Contains(exitErr, simgpu.InjectedFaultMsg)
}

// taskExited applies a task exit: injected infrastructure faults
// enter the recovery cycle (the task's own work is intact — the platform
// failed it), and so does a pause-overrun grace kill on a worker whose
// bubble supply is contracting (a stale admission, not a task bug — the
// drift-aware classification); every other exit is the task's outcome and
// stays terminal.
func (m *Manager) taskExited(rec *taskRecord, st taskStatus) {
	w := m.workers[rec.workerIdx]
	m.detach(rec)
	if m.running {
		if m.opts.Lease > 0 && isInfraFault(st.ExitErr) {
			m.planRecovery(rec, st.ExitErr)
			return
		}
		if m.opts.Replan != nil && isGraceKill(st.ExitErr) &&
			w.est != nil && w.est.ShrinkSuspected() {
			m.planRecovery(rec, st.ExitErr+" (bubble shrank: replan demotion)")
			return
		}
	}
	m.retire(rec, st.ExitErr)
}

// retire ends rec for good: exited with cause, out of service. The
// only place a record is retired.
func (m *Manager) retire(rec *taskRecord, cause string) {
	rec.exited = true
	rec.exitErr = cause
	rec.state = sidetask.StateStopped
}
