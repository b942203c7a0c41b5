package core

import (
	"slices"
	"strings"
	"time"

	"freeride/internal/bubble"
	"freeride/internal/sidetask"
	"freeride/internal/simproc"
)

// Online re-planning (the dynamic-bubbles robustness layer): the manager
// seeds one drift estimator per worker from the one-shot bubble profile,
// feeds it every AddBubble report, and — when the estimator detects that
// the reported supply has shifted — re-runs the Algorithm-1 admission
// filter against the online estimates. Tasks whose bubbles shrank below
// their pause-time fit are demoted through the same checkpoint-restart
// backoff cycle a crash uses; tasks parked for lack of anywhere to run are
// revived when the profile grows back. Everything runs on the engine clock,
// in the engine's callbacks, so same-seed drift runs are bit-identical, and a
// zero-drift run never fires the detector at all.

// recoveryArmed reports whether the backoff/re-placement cycle is wired:
// either the lease failure detector or the re-plan plane arms it.
func (m *Manager) recoveryArmed() bool {
	return m.opts.Lease > 0 || m.opts.Replan != nil
}

// isGraceKill classifies a worker-side pause-overrun kill (the task held
// the GPU past bubble end + grace and was killed at a blocking point).
func isGraceKill(exitErr string) bool {
	return strings.Contains(exitErr, simproc.ErrKilled.Error())
}

// SetBubbleBaseline seeds the named worker's online estimator from the
// one-shot profile: perEpoch is the bubble supply the reporter emits per
// epoch (post safety margin) and reports how many reports carry it. No-op
// unless re-planning is armed. Until a worker is baselined its detector is
// off and the one-shot profile stays authoritative.
func (m *Manager) SetBubbleBaseline(name string, perEpoch time.Duration, reports int) {
	if m.opts.Replan == nil || perEpoch <= 0 || reports <= 0 {
		return
	}
	for _, w := range m.workers {
		if w.name == name {
			w.est = bubble.NewEstimator(*m.opts.Replan, perEpoch, reports)
			return
		}
	}
}

// fitsOnline is the online admission predicate: the re-profiled
// memory must admit the task AND the estimated mean bubble must cover its
// worst-case pause-time fit (one jittered step plus host overhead). Callers
// gate it on est.Drifted() — until a detection the one-shot profile is
// authoritative and this predicate must not be consulted, which is what
// keeps zero-drift admission bit-identical.
func (m *Manager) fitsOnline(w *workerMeta, spec TaskSpec) bool {
	if !AdmitsMem(w.gpuMem, spec.Profile.MemBytes, m.opts.MemSlack) {
		return false
	}
	fit := spec.Profile.FitTime()
	return fit <= 0 || w.est == nil || w.est.MeanBubble() >= fit
}

// replan is the drift response for one worker: fold the reported
// memory into the admission figure, demote every attached task the online
// profile no longer fits, then revive parked tasks the re-profiled cluster
// fits again (a grown stage may now hold a task that exhausted its budget
// against the old shape).
func (m *Manager) replan(w *workerMeta) {
	m.stats.Replans++
	if w.lastMem > 0 {
		w.gpuMem = w.lastMem
	}
	if rec := w.current; rec != nil && !m.fitsOnline(w, rec.spec) {
		m.demote(w, rec)
	}
	for _, rec := range slices.Clone(w.queue) { // demotions edit the queue
		if !m.fitsOnline(w, rec.spec) {
			m.demote(w, rec)
		}
	}
	m.reviveParked()
}

// demote pulls rec off w because the online profile no longer fits
// it: the live incarnation is stopped (its eventual exit report carries a
// stale incarnation and is discarded) and the task enters the same
// checkpoint-restart backoff cycle a crash uses. Work served since the
// last acknowledged pause is charged to LostWork exactly like crash
// re-placement — a demotion loses the un-checkpointed tail too.
func (m *Manager) demote(w *workerMeta, rec *taskRecord) {
	if rec.exited || rec.parked {
		return
	}
	m.stats.Demotions++
	if w.hasBubble {
		// The partial serve of the in-flight bubble is real GPU time the
		// checkpoint will not cover; account it before planning recovery.
		m.accountServed(rec, &w.bubble, m.eng.Now())
	}
	m.goCall(callStop, w, rec)
	m.detach(rec)
	m.planRecovery(rec, "replan demotion: bubble supply no longer fits")
	m.wake(w)
}

// reviveParked re-admits parked tasks the current online profile
// fits somewhere. A revived task gets a fresh restart budget: parking was
// the old profile's verdict, and the re-plan that revives it is planning
// against new information. Iteration follows submission order — map order
// would be nondeterministic.
func (m *Manager) reviveParked() {
	for _, rec := range m.taskOrder {
		if !rec.parked || rec.exited {
			continue
		}
		if m.place(rec.spec) < 0 {
			continue
		}
		rec.parked = false
		rec.restarts = 0
		rec.exitErr = ""
		rec.state = sidetask.StateSubmitted
		m.stats.Revivals++
		m.replaceTask(rec)
	}
}
