package core

import (
	"fmt"

	"freeride/internal/sidetask"
)

// Submit places a new side task: SubmitAndPlace without the worker's name.
func (m *Manager) Submit(spec TaskSpec) error {
	_, err := m.SubmitAndPlace(spec)
	return err
}

// SubmitAndPlace places a new side task (paper Algorithm 1) and reports the
// chosen worker's name: among workers with enough available GPU memory, pick
// the one with the fewest tasks; reject if none qualifies. "Enough" accounts
// for the MemSlack headroom the MPS limit will carry: a worker whose memory
// merely matches the profiled footprint cannot honor the limit
// MemBytes+MemSlack.
func (m *Manager) SubmitAndPlace(spec TaskSpec) (string, error) {
	if _, dup := m.tasks[spec.Name]; dup {
		return "", fmt.Errorf("core: duplicate task name %q", spec.Name)
	}
	m.stats.Submitted++

	selected := m.place(spec)
	if selected < 0 {
		m.stats.Rejected++
		return "", ErrRejected
	}

	rec := &taskRecord{spec: spec, submittedAt: m.eng.Now(), refArgs: taskRef{Name: spec.Name}}
	m.tasks[spec.Name] = rec
	m.taskOrder = append(m.taskOrder, rec)
	return m.deploy(rec, selected).name, nil
}

// deploy queues rec's current incarnation on the selected worker and
// asks it to create the task (SUBMITTED→CREATED happens on the worker) —
// shared by submission and recovery re-placement.
func (m *Manager) deploy(rec *taskRecord, selected int) *workerMeta {
	rec.workerIdx = selected
	rec.state = sidetask.StateSubmitted
	w := m.workers[selected]
	w.queue = append(w.queue, rec)
	m.wake(w)
	m.goCall(callCreate, w, rec)
	return w
}

// place is the Algorithm-1 selection loop, shared by Submit and
// recovery re-placement: among live workers passing the AdmitsMem predicate
// (and the queue cap), the one with the fewest tasks; -1 if none qualifies.
func (m *Manager) place(spec TaskSpec) int {
	minTasks := int(^uint(0) >> 1)
	selected := -1
	for i, w := range m.workers {
		if !w.alive {
			continue
		}
		if w.est != nil && w.est.Drifted() {
			// The worker's one-shot profile is stale: admit against the
			// online estimate instead (memory from the report stream, bubble
			// fit from the estimator). Count the placements the stale
			// profile would have made — those are the bad admissions
			// re-planning avoids.
			if !m.fitsOnline(w, spec) {
				if AdmitsMem(w.gpuMem0, spec.Profile.MemBytes, m.opts.MemSlack) {
					m.stats.StaleAdmissions++
				}
				continue
			}
		} else if !AdmitsMem(w.gpuMem, spec.Profile.MemBytes, m.opts.MemSlack) {
			continue
		}
		if n := w.numTasks(); n < minTasks {
			minTasks = n
			selected = i
		}
	}
	return selected
}
