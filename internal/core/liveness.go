package core

import (
	"freeride/internal/freerpc"
	"freeride/internal/sidetask"
)

// armLease (re)starts w's failure detector: the lease begins now and
// w joins the manager's liveness tick, which pings every alive worker on the
// grid epoch+k·Lease/2. No-op unless the manager is running with a lease
// configured. Start arms every worker at the epoch, so the tick instants are
// the ones a per-worker Lease/2 ping timer would hit; a worker added to a
// running manager (live mode) is pinged from the next grid instant on, and
// restarts the tick if it had stopped with the last alive worker.
//
// The lease check itself is armed by the tick, and only for an instant at
// which, if nothing else happens first, the worker is dead: a tick at `now`
// arms it at e = lastSeen+Lease when e ≤ now+Lease/2. Every possible expiry
// e has exactly one tick in [e−Lease/2, e); if the worker is going to die at
// e, lastSeen is already final at that tick, so the check runs at e — and a
// worker that keeps answering never has one armed (its lastSeen is younger
// than Lease/2 at every tick). Tie order: the tick arms the checks before it
// re-arms itself, so a check due at the instant of the next tick runs first
// and a worker dead at that instant is not pinged again. (A live daemon's
// paced engine runs the same ticks at the same engine instants, each no
// earlier than its instant in real time.)
func (m *Manager) armLease(w *workerMeta) {
	if m.opts.Lease <= 0 || !m.running || !w.alive {
		return
	}
	w.lastSeen = m.eng.Now()
	if !m.pingTimer.Pending() {
		m.armPing()
	}
}

// armPing arms the liveness tick for the first grid instant after now.
func (m *Manager) armPing() {
	half := m.opts.Lease / 2
	now := m.eng.Now()
	at := m.epoch + ((now-m.epoch)/half+1)*half
	m.pingTimer = m.eng.Reschedule(m.pingTimer, at-now, "manager-ping", m.pingFn)
}

// pingTick is the liveness tick: it arms the lease check of every alive
// worker whose lease can run out before the next tick (see armLease),
// re-arms itself, and probes the alive workers in registration order. A
// reply refreshes the lease and doubles as anti-entropy: its status snapshot
// heals state a faulted link dropped. With no worker alive the tick stops.
func (m *Manager) pingTick() {
	if !m.running {
		return
	}
	now, alive := m.eng.Now(), false
	for _, w := range m.workers {
		if !w.alive {
			continue
		}
		alive = true
		if expiry := w.lastSeen + m.opts.Lease; expiry <= now+m.opts.Lease/2 {
			w.leaseTimer = m.eng.Reschedule(w.leaseTimer, expiry-now, "", w.leaseFn)
		}
	}
	if !alive {
		return
	}
	m.armPing()
	for _, w := range m.workers {
		if w.alive {
			m.stats.Pings++
			w.peer.Go("Worker.Ping", nil, m.opts.Lease/2, w.pingDone)
		}
	}
}

// pingReplied completes a Worker.Ping (w.pingDone, built once per worker).
func (m *Manager) pingReplied(w *workerMeta, result any, err error) {
	if err != nil || !w.alive {
		return
	}
	w.lastSeen = m.eng.Now()
	if reply, derr := freerpc.DecodeResult[pingReply](result); derr == nil {
		for _, st := range reply.Tasks {
			m.applyPingStatus(st)
		}
	}
}

// checkLease fires at the instant the lease the arming tick saw would run
// out: a worker with no sign of life for a full Lease is declared dead. A
// worker refreshed since is left alone — the tick that covers its new expiry
// arms the next check, so this one never re-arms itself.
func (m *Manager) checkLease(w *workerMeta) {
	if !m.running || !w.alive || m.opts.Lease <= 0 {
		return
	}
	if m.eng.Now()-w.lastSeen >= m.opts.Lease {
		m.workerLost(w, "lease expired")
	}
}

// applyPingStatus folds one ping-reply status into the manager's
// record. Anti-entropy is forward-only: per-link FIFO delivery means a state
// push always arrives no later than a ping reply sampling the same
// transition, so in fault-free runs the snapshot can never be newer than the
// record — only transitions a lost push would have carried are applied (an
// exit, or the init-completion PAUSED the manager has not yet seen). A stale
// reply can therefore never regress an optimistic record.
func (m *Manager) applyPingStatus(st taskStatus) {
	rec, w := m.live(st.Name, st.Incarnation)
	if rec == nil {
		return
	}
	if st.Exited {
		m.taskExited(rec, st)
		m.wake(w)
		return
	}
	if sidetask.State(st.State) == sidetask.StatePaused && rec.state == sidetask.StateCreated {
		rec.state = sidetask.StatePaused
		m.wake(w)
	}
}

// live resolves a worker's report about a task (a state push, an exit
// push, a ping-reply status) to its record and worker, or nil if it is about
// nothing live: an unknown task, one that has exited or parked, or a dead
// incarnation (a crashed worker's report racing the re-placement). A live
// report is a sign of life and refreshes the worker's lease.
func (m *Manager) live(name string, incarnation int) (*taskRecord, *workerMeta) {
	rec, ok := m.tasks[name]
	if !ok || rec.exited || rec.parked || incarnation != rec.incarnation {
		return nil, nil
	}
	w := m.workers[rec.workerIdx]
	if m.opts.Lease > 0 {
		w.lastSeen = m.eng.Now()
	}
	return rec, w
}

// onTaskState handles the worker's state push (Manager.TaskState).
func (m *Manager) onTaskState(st taskStatus) (any, error) {
	if rec, w := m.live(st.Name, st.Incarnation); rec != nil {
		rec.state = sidetask.State(st.State)
		m.wake(w)
	}
	return nil, nil
}

// onTaskExited handles the worker's exit notification (Manager.TaskExited).
func (m *Manager) onTaskExited(st taskStatus) (any, error) {
	if rec, w := m.live(st.Name, st.Incarnation); rec != nil {
		m.taskExited(rec, st)
		m.wake(w)
	}
	return nil, nil
}
