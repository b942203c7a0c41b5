package simgpu

import (
	"math"
	"time"

	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// Host-lead launches: ExecLeadThen fuses a caller-side host phase (the side
// task's per-step CPU overhead) into the kernel's completion event. The
// kernel is created at launch time but stays a *lead* — outside the running
// set, consuming no SM share — until now+lead, when it *matures*: joins the
// running set and rebalances exactly as a plain launch at that instant
// would. One engine event (the armed completion hypothesis) replaces the
// caller's sleep(lead) + launch pair. Two loops launch this way: the side
// task's step loop (the lead is the step's host overhead) and the pipeline
// stage machine of a chunk that owns its stage's stream (the lead is the
// activation/gradient transfer ahead of the op's kernel).
//
// Maturation is lazy: it runs at the first device transition at-or-after
// leadUntil, rebalancing *as of leadUntil* (rebalanceAtLocked), which
// reproduces bit-exactly the accrual/water-fill/trace/deadline arithmetic of
// an eager launch. The armed completion timer is a hypothesis — the exact
// completion if no further device events intervene. Device transitions
// after arming can only push the true completion later (they are themselves
// rebalance points that refresh the hypothesis), so the timer fires
// early-never-late; a premature fire matures the lead, detects the
// staleness and re-arms (rebalanceAtLocked's firing contract).
//
// The Stop/Pause boundary: HoldLead freezes a lead whose host phase a
// SIGTSTP interrupted (the unfused arm's sleep would have frozen the same
// way), ReleaseLead resumes it with leadUntil pushed to at least the resume
// instant — matching the deferred sleep-wake delivery of a stopped process.
// A lead whose host phase already elapsed matures on hold, so in-flight
// kernels keep running through a pause, exactly as the paper's asynchronous
// kernels do (§5).
//
// The fault boundary: an armed kernel fault (InjectKernelFault) fails the
// first matching launch at or after its arming, and a lead's launch instant
// is its leadUntil (a held lead's: its release). A fault found armed at the
// step's start is consumed there and delivered at leadUntil; one armed while
// the lead is pending moves the lead's timer from the completion hypothesis
// to leadUntil, where maturation takes it — unless another client's plain
// launch got there first.

// LeadCapable reports whether the device realises a host lead as one engine
// event: virtual engine, incremental rebalance. Elsewhere (the wall engine,
// the full-recompute oracle) ExecLeadThen spends the lead as the caller's own
// sleep — two events, bit-identical by construction.
func (d *Device) LeadCapable() bool { return d.fusable }

// ExecLeadThen is ExecThen with a host-lead offset: the kernel becomes
// runnable at now+lead and k receives the completion payload (nil or error)
// when it finishes. lead <= 0 degenerates to a plain ExecThen, launched at
// once (no event at this instant). The client's stream must be idle and stay
// the caller's alone until k runs: a host phase cannot overlap the same
// stream's in-flight kernel. Both callers are strictly serial on their
// stream — the side-task step loop and the pipeline stage machine of a chunk
// that owns its stage (VirtualPerStage == 1, the transfer as the lead) — and
// *spec must stay unchanged until k runs.
func (c *Client) ExecLeadThen(p *simproc.Process, spec *KernelSpec, lead time.Duration, k func(any)) {
	switch {
	case lead <= 0:
		c.ExecThen(p, spec, k)
	case !c.dev.fusable:
		// The host phase is the process's own sleep, so a SIGTSTP defers its
		// wake — and with it the launch — to the SIGCONT. The launch it
		// continues into is pre-bound on the client: one pending lead each.
		l := &c.lead
		if l.fn == nil {
			l.fn = c.launchAfterLead
		}
		l.p, l.spec, l.k = p, spec, k
		p.SleepThen(lead, l.fn)
	case p.ChainWait(spec.Name, k):
		c.launchLead(spec, lead, p)
	default:
		p.BeginWait(k)
		c.launchLead(spec, lead, p)
		p.EndWait(spec.Name)
	}
}

// sleptLead is the client's pending lead on a device that is not
// LeadCapable: what the host-phase sleep's continuation launches.
type sleptLead struct {
	p    *simproc.Process
	spec *KernelSpec
	k    func(any)
	fn   func(any) // launchAfterLead, bound on first use
}

// launchAfterLead ends a slept host phase: it launches the pending lead's
// kernel as a plain ExecThen.
func (c *Client) launchAfterLead(any) {
	l := &c.lead
	p, spec, k := l.p, l.spec, l.k
	l.p, l.spec, l.k = nil, nil, nil
	c.ExecThen(p, spec, k)
}

// launchLead creates a lead kernel maturing at now+lead; the completion (or
// the failure) reaches waiter's armed wait.
func (c *Client) launchLead(spec *KernelSpec, lead time.Duration, waiter *simproc.Process) {
	spec.normalize()
	d := c.dev
	d.mu.Lock()
	if c.closed {
		d.mu.Unlock()
		waiter.Wake(ErrClientClosed)
		return
	}
	if err := d.takeFaultLocked(c); err != nil {
		// Armed kernel fault: consume it now, deliver it when the host
		// phase ends — the instant the unfused arm's launch would have
		// consumed and delivered it.
		d.mu.Unlock()
		simtime.Detached(d.eng, lead, spec.Name, func() { waiter.Wake(err) })
		return
	}
	if c.current != nil {
		d.mu.Unlock()
		panic("simgpu: ExecLeadThen on a busy client")
	}
	// The unfused arm's continuation would sleep here without touching the
	// device, so an open fusion window settles now (flush, not fold — there
	// is no launch rebalance at this instant to fold into), and leads due
	// at this instant mature.
	d.flushFusionLocked()
	d.matureLeadsLocked(nil)
	k := d.popKernelLocked(c, spec, nil, waiter)
	k.leading = true
	k.leadUntil = d.eng.Now() + lead
	c.current = k
	d.leadsInsertLocked(k)
	d.armLeadLocked(k)
	d.mu.Unlock()
}

// leadsInsertLocked adds k to the pending-leads list, keeping leadUntil
// order. Caller holds d.mu.
func (d *Device) leadsInsertLocked(k *kernel) {
	i := len(d.leads)
	for i > 0 && d.leads[i-1].leadUntil > k.leadUntil {
		i--
	}
	d.leads = append(d.leads, nil)
	copy(d.leads[i+1:], d.leads[i:])
	d.leads[i] = k
}

// leadsRemoveLocked drops k from the pending-leads list. Caller holds d.mu.
func (d *Device) leadsRemoveLocked(k *kernel) {
	for i, lk := range d.leads {
		if lk == k {
			copy(d.leads[i:], d.leads[i+1:])
			last := len(d.leads) - 1
			d.leads[last] = nil
			d.leads = d.leads[:last]
			return
		}
	}
}

// matureLeadsLocked promotes every lead whose host phase has elapsed into
// the running set, in leadUntil order, each with a rebalance as of its own
// leadUntil — replicating the event sequence the unfused arm's launches
// would have produced. firing follows the rebalanceAtLocked contract; the
// return value reports whether firing's completion was re-armed (the
// in-flight fire is stale). Caller holds d.mu.
func (d *Device) matureLeadsLocked(firing *kernel) (stale bool) {
	if len(d.leads) == 0 {
		return false
	}
	now := d.eng.Now()
	matured := false
	for len(d.leads) > 0 && d.leads[0].leadUntil <= now {
		k := d.leads[0]
		copy(d.leads, d.leads[1:])
		last := len(d.leads) - 1
		d.leads[last] = nil
		d.leads = d.leads[:last]
		if err := d.takeFaultLocked(k.client); err != nil {
			// A fault armed during the host phase: the launch at leadUntil
			// fails, never touching the running set (the serial stream has
			// nothing queued behind a lead). Delivered as an event of this
			// instant — d.mu is held, and the failure may destroy the client.
			w := k.waiter
			k.timer.Cancel()
			k.waiter, k.client.current, k.client = nil, nil, nil
			d.kernelPool = append(d.kernelPool, k)
			simtime.Detached(d.eng, 0, k.doneName, func() { w.Wake(err) })
			stale = stale || k == firing
			continue
		}
		k.leading = false
		k.started = k.leadUntil
		k.startSet = true
		d.runningInsertLocked(k)
		d.residencyChangedLocked(k.client)
		if d.rebalanceAtLocked(k.leadUntil, firing) {
			stale = true
		}
		matured = true
	}
	if matured {
		d.refreshLeadsLocked()
	}
	return stale
}

// refreshLeadsLocked re-derives every pending lead's completion hypothesis
// after a change to the allocation state (running set, residency). Caller
// holds d.mu.
func (d *Device) refreshLeadsLocked() {
	for _, k := range d.leads {
		d.armLeadLocked(k)
	}
}

// armLeadLocked computes k's completion hypothesis — the exact completion
// instant if no further device events intervene before leadUntil — and arms
// its timer at it. The hypothesis inserts k into a copy of the running set
// at its client-order position and runs the same water-fill + residency-tax
// arithmetic the maturation rebalance will run, so in the no-event case the
// armed (when) IS the completion, bit-exactly. The share cache is bypassed
// in both directions: hypothesis lookups would perturb the hit/miss stream
// and MRU order away from the unfused arm's. Caller holds d.mu.
func (d *Device) armLeadLocked(k *kernel) {
	// Hypothetical running set with k at its insertion position: the
	// water-fill iterates in slice order, so position affects float
	// summation order and must match runningInsertLocked's.
	idx := len(d.running)
	for i, rk := range d.running {
		if rk.client.orderIdx > k.client.orderIdx {
			idx = i
			break
		}
	}
	run := d.scratchRun[:0]
	run = append(run, d.running[:idx]...)
	run = append(run, k)
	run = append(run, d.running[idx:]...)
	d.scratchRun = run

	// Save the real allocations: assignAllocations writes k.alloc for the
	// whole hypothetical set, and the running kernels' true allocations
	// must survive the dry run.
	allocs := d.scratchAllocs[:0]
	for _, rk := range run {
		allocs = append(allocs, rk.alloc)
	}
	d.scratchAllocs = allocs

	d.assignAllocations(run)
	resident := d.resident
	if !k.client.resident {
		resident++
	}
	if d.cfg.ResidencyTax > 0 && d.cfg.Policy == PolicyMPS && resident >= 2 {
		scale := 1 / (1 + d.cfg.ResidencyTax)
		for _, rk := range run {
			rk.alloc *= scale
		}
	}
	hyp := k.alloc
	for i, rk := range run {
		rk.alloc = allocs[i]
	}
	if hyp <= 0 {
		hyp = minAlloc
	}

	deadline := k.leadUntil + time.Duration(math.Ceil(k.work/hyp*1e9))
	if d.faultArmedLocked(k.client) {
		// The lead's launch is about to fail: fire at the launch instant.
		deadline = k.leadUntil
	}
	if deadline == k.leadDeadline {
		// Unchanged hypothesis (the steady-state fused completion→relaunch
		// fold restores the same fingerprint): the armed timer stands.
		return
	}
	k.leadDeadline = deadline
	k.timer = simtime.Reschedule(d.eng, k.timer, deadline-d.eng.Now(), k.doneName, k.completeFn)
}

// HoldLead freezes the client's pending host lead (SIGTSTP landed inside
// the host phase). A lead whose host phase already elapsed matures instead:
// its kernel is in flight and keeps running through the pause, exactly as
// the unfused arm's asynchronously launched kernel would. No-op without a
// pending lead.
//
// The tie rule: a signal landing on exactly leadUntil counts the host phase
// as elapsed. The two-event form breaks the same tie by event sequence — the
// sleep's wake against the signal's event, whichever was scheduled first — so
// on that one instant the two may differ, and differential tests keep their
// signals off it.
func (c *Client) HoldLead() {
	d := c.dev
	d.mu.Lock()
	d.flushFusionLocked()
	d.matureLeadsLocked(nil)
	k := c.current
	if k != nil && k.leading && !k.held {
		k.held = true
		k.timer.Cancel()
		k.leadDeadline = -1
		d.leadsRemoveLocked(k)
	}
	d.mu.Unlock()
}

// ReleaseLead resumes a held lead (SIGCONT): the remaining host phase
// re-arms with leadUntil pushed to at least the resume instant — the
// deferred sleep-wake of a stopped unfused process delivers at exactly the
// same boundary. No-op without a held lead.
func (c *Client) ReleaseLead() {
	d := c.dev
	d.mu.Lock()
	d.flushFusionLocked()
	k := c.current
	if k != nil && k.leading && k.held {
		k.held = false
		if now := d.eng.Now(); k.leadUntil < now {
			k.leadUntil = now
		}
		d.leadsInsertLocked(k)
		if k.leadUntil <= d.eng.Now() {
			d.matureLeadsLocked(nil)
		} else {
			d.armLeadLocked(k)
		}
	}
	d.mu.Unlock()
}
