package core

import (
	"freeride/internal/freerpc"
	"freeride/internal/sidetask"
)

// callKind names the five calls the manager issues about a task; each is a
// row of callTable.
type callKind uint8

const (
	callCreate callKind = iota
	callInit
	callStart
	callPause
	callStop
	numCallKinds
)

// outcome is what a completed call turned out to be, classified the same way
// for every kind.
type outcome uint8

const (
	outFailed      outcome = iota // an error: never sent, timed out, or refused by the handler
	outNoReply                    // no error and no result either
	outUndecodable                // a result that is not a taskStatus
	outExited                     // a status reporting that the task has exited
	outAcked                      // any other status
	numOutcomes
)

// action is a cell of callTable: what a call does to its record when it is
// issued or completed. stands is the empty cell, and a decision like any
// other: that outcome changes nothing the manager records.
type action uint8

const (
	stands action = iota
	// Optimistic writes, made as the call is sent.
	pinInit      // initSent: no second Init while one is in flight
	pinStart     // startedSeq: no second Start into the same bubble
	assumePaused // PAUSED, not serving; corrected by stillRunning
	// Their rollbacks. Each undoes the write only if no later call has
	// overwritten it, then wakes the worker so the next pass retries.
	unpinInit    // a wedged init would otherwise starve the worker's whole queue
	unpinStart   // the bubble can be retried — unless a later bubble's start replaced it
	stillRunning // the pause never arrived: to the manager's best knowledge the task runs on
	// Acknowledgements.
	markCreated   // SUBMITTED→CREATED happened on the worker
	markStarted   // RUNNING and serving from now — or, not Started, whatever state the worker reports
	checkpoint    // an acknowledged pause is a consistent cut of the task's progress
	exitTask      // the reply reports the task's exit (see taskExited)
	recoverOrStop // a failed create: another attempt under recovery, retired without
	stopFailed    // a failed stop retires the record instead of leaving it in limbo
	wakeWorker    // only schedule a pass
)

// callRow declares one call kind: its method, its optimistic write, and its
// completion per outcome.
type callRow struct {
	method string
	issued action
	on     [numOutcomes]action
	// failedDead is the cell for a failed call whose record has exited or
	// parked meanwhile, same incarnation — the one case in which a completion
	// about a record out of service still acts (Init's wake can put one more
	// kick on the engine, so it is observable and stated, not unified away).
	failedDead action
}

var callTable = [numCallKinds]callRow{
	// The create reply's content is never read: any answer means the
	// incarnation exists.
	callCreate: {method: "Worker.Create", on: [numOutcomes]action{
		outFailed: recoverOrStop, outNoReply: markCreated, outUndecodable: markCreated, outExited: markCreated, outAcked: markCreated}},
	// Init consumes only failure: the PAUSED transition is pushed back
	// asynchronously via Manager.TaskState, so a reply says nothing new.
	callInit: {method: "Worker.Init", issued: pinInit, failedDead: wakeWorker, on: [numOutcomes]action{
		outFailed: unpinInit}},
	// A start that cannot be counted on — failed, unanswered, or answered
	// with something undecodable — is retried.
	callStart: {method: "Worker.Start", issued: pinStart, on: [numOutcomes]action{
		outFailed: unpinStart, outNoReply: unpinStart, outUndecodable: unpinStart, outExited: exitTask, outAcked: markStarted}},
	// An undecodable pause reply still proves the worker processed the pause,
	// so the optimistic PAUSED stands — only the exit flag it may have carried
	// is lost (the TaskExited push covers that independently).
	callPause: {method: "Worker.Pause", issued: assumePaused, on: [numOutcomes]action{
		outFailed: stillRunning, outNoReply: stillRunning, outExited: exitTask, outAcked: checkpoint}},
	// Stop consumes only failure. A demotion's Stop is never consumed at all:
	// the demotion moves the record to its next incarnation as it sends it.
	callStop: {method: "Worker.Stop", on: [numOutcomes]action{
		outFailed: stopFailed}},
}

// workerCall is the context of one in-flight call: what its completion needs
// to know, plus done, the completion itself, bound once when the context is
// first built. Contexts are manager-private — nothing in them crosses the
// link — and the peer completes every call exactly once, so a context
// returns to its pool whenever done has run, reply or failure alike.
type workerCall struct {
	kind callKind
	w    *workerMeta
	rec  *taskRecord
	// inc is rec's incarnation when the call was issued; a completion for an
	// older incarnation is discarded.
	inc int
	// seq is the adoption number of the bubble a start was issued for.
	seq  uint64
	done func(result any, err error)
}

// goCall issues one call about rec to its worker w, on a pooled context:
// Init, Start and Pause run once per bubble and allocate nothing; Create and
// Stop run once per incarnation and allocate only Create's parameters.
func (m *Manager) goCall(kind callKind, w *workerMeta, rec *taskRecord) {
	pc := m.callPool.Get()
	c := &pc.V
	if c.done == nil {
		c.done = func(result any, err error) { m.complete(pc, result, err) }
	}
	c.kind, c.w, c.rec, c.inc, c.seq = kind, w, rec, rec.incarnation, w.bubbleSeq
	row := &callTable[kind]
	m.apply(row.issued, c, taskStatus{}, nil)
	params := rec.refArgs
	switch kind {
	case callCreate:
		// Re-placements carry the last checkpoint.
		args := createArgs{
			Spec:          rec.spec,
			MemLimitBytes: rec.spec.Profile.MemBytes + m.opts.MemSlack,
			Incarnation:   rec.incarnation,
		}
		if rec.hasCkpt {
			ck := rec.ckpt
			args.Ckpt = &ck
		}
		params = args
	case callStart:
		args := m.startPool.Get()
		args.V = startArgs{Name: rec.spec.Name, BubbleEndNs: int64(w.bubble.End())}
		params = args
	}
	m.stats.RPCs++
	w.peer.Go(row.method, params, m.opts.RPCTimeout, c.done)
}

// complete is the done callback of every call. It guards the completion
// against its record once, decodes the reply once, and applies the cell the
// table declares for that outcome.
func (m *Manager) complete(pc *freerpc.Pooled[workerCall], result any, err error) {
	c := &pc.V
	if rec, row := c.rec, &callTable[c.kind]; rec.incarnation != c.inc {
		// About a dead incarnation (a crashed or demoted deployment).
	} else if rec.exited || rec.parked {
		if err != nil {
			m.apply(row.failedDead, c, taskStatus{}, err)
		}
	} else {
		out, st := classify(result, err)
		m.apply(row.on[out], c, st, err)
	}
	c.w, c.rec = nil, nil
	pc.Recycle()
}

// classify decodes a call's reply into its outcome.
func classify(result any, err error) (outcome, taskStatus) {
	if err != nil {
		return outFailed, taskStatus{}
	}
	if result == nil {
		return outNoReply, taskStatus{}
	}
	st, derr := freerpc.DecodeResult[taskStatus](result)
	switch {
	case derr != nil:
		return outUndecodable, taskStatus{}
	case st.Exited && !st.Started:
		return outExited, st
	}
	// A Started reply acknowledges the start whatever else it carries.
	return outAcked, st
}

// apply carries out one cell for call c; st is the decoded reply (for
// outExited and outAcked), err the call's error (for outFailed).
func (m *Manager) apply(a action, c *workerCall, st taskStatus, err error) {
	rec, wake := c.rec, false
	switch a {
	case pinInit:
		rec.initSent = true
	case pinStart:
		rec.startedSeq = c.seq
	case assumePaused:
		rec.serving = false
		rec.state = sidetask.StatePaused
	case unpinInit:
		if rec.state == sidetask.StateCreated {
			rec.initSent = false
		}
		wake = true
	case unpinStart:
		if rec.startedSeq == c.seq {
			rec.startedSeq = 0
		}
		wake = true
	case stillRunning:
		if rec.state == sidetask.StatePaused {
			rec.state = sidetask.StateRunning
		}
		wake = true
	case markCreated:
		if rec.state == sidetask.StateSubmitted {
			rec.state = sidetask.StateCreated
		}
		wake = true
	case markStarted:
		if st.Started {
			rec.state = sidetask.StateRunning
			rec.serving = true
			rec.servedFrom = m.eng.Now()
			m.stats.BubblesServed++
		} else {
			rec.state = sidetask.State(st.State)
			wake = true
		}
	case checkpoint:
		// A later restart resumes from here; only work accrued past this point
		// is lost.
		rec.ckpt = TaskCkpt{
			Steps:        st.Steps,
			KernelTimeNs: st.KernelTimeNs,
			HostTimeNs:   st.HostTimeNs,
			InsuffNs:     st.InsuffNs,
		}
		rec.hasCkpt = true
		rec.servedSinceCkpt = 0
	case exitTask:
		m.taskExited(rec, st)
		wake = true
	case recoverOrStop:
		// Under recovery a failed create consumes an attempt and re-enters the
		// backoff cycle; with recovery disabled it retires the task, the
		// pre-lease behaviour.
		if m.recoveryArmed() && m.running {
			m.detach(rec)
			m.planRecovery(rec, "create failed: "+err.Error())
		} else {
			m.retire(rec, err.Error())
			wake = true
		}
	case stopFailed:
		m.retire(rec, "stop failed: "+err.Error())
	case wakeWorker:
		wake = true
	}
	if wake {
		m.wake(c.w)
	}
}

// StopAll asks every worker to stop its tasks (end of run), in submission
// order — the Stop RPCs take call ids and engine sequence numbers.
func (m *Manager) StopAll() {
	for _, rec := range m.taskOrder {
		if rec.exited {
			continue
		}
		rec.retryTimer.Cancel()
		if rec.parked || !m.placed(rec) {
			continue
		}
		m.goCall(callStop, m.workers[rec.workerIdx], rec)
	}
}
