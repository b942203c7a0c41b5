package simgpu

import (
	"math"
	"time"

	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// Host-lead launches: ExecLeadThen fuses a caller-side host phase into the
// kernel's completion event. Three callers launch this way: the side task's
// step loop (the lead is the step's host overhead), the pipeline stage
// machine (the lead is the activation/gradient transfer ahead of the op's
// kernel), and a goroutine process's blocking Exec, whose deferred sleep
// (simproc.Process.DeferSleep: a shell step's HostWork) becomes the lead. The
// kernel is created at launch time but stays a *lead* — off its client's
// stream, consuming no SM share — until its host phase ends at leadUntil,
// when it *matures*: it starts at once if the stream is idle then,
// rebalancing exactly as a plain launch at that instant would, and otherwise
// joins the stream's FIFO behind what is already there. One engine event (the
// armed completion) replaces the caller's sleep(lead) + launch pair, and none
// where the completion is folded into the one before it (below).
//
// The end of the host phase is a virtual wake (simtime.Virtual.Reserve): the
// (when, seq) slot the caller's sleep would have taken, which the engine
// orders like an event and never dispatches. Maturation is lazy: it runs at
// the first device transition after the dispatch order has passed the slot,
// in slot order, and rebalances as of leadUntil (rebalanceAt), with
// every timer it re-arms keyed as if armed inside the wake
// (simtime.Virtual.RescheduleAs). That reproduces bit-exactly the accrual,
// water-fill, trace and deadline arithmetic of an eager launch, and the
// (when, seq) order of everything it arms. So the stream may be shared — the
// interleaved schedule's V chunks lead onto one stage client — and a
// same-instant tie resolves as the engine orders the sleep's wake: two
// transfers ending together join the FIFO in slot order; a transfer ending
// just as its stream's kernel completes queues behind it, or ahead of what
// the completion's continuation launches, as its slot sorts; consumers of
// kernels that finish together lead in the order those completions ran.
//
// The armed completion timer is a hypothesis — the exact completion if no
// further device events intervene. Every device transition refreshes it, so
// it fires early-never-late; a premature fire matures the lead, detects the
// staleness and re-arms (rebalanceAt's firing contract). A lead whose
// stream is busy (a kernel in flight or queued, or a lead of the client due
// first) arms nothing: the transition that frees the stream matures it.
//
// The unmatured retire: when the hypothesis fires as the device's only lead,
// with no fault armed for its client and no series recorded, and was armed at
// the exact completion (leadExact), completeKernel retires it without
// maturing it — started at leadUntil, counted, delivered (or, with a step
// part left, relaunched in place). The maturation would install the
// hypothesis's own allocation vector and find the completion due at this
// dispatch (the armed deadline is that rebalance's bit for bit), and the
// completion would take the kernel off the device again. Alone on the
// device, the skipped rebalances would change nothing: a set of one kernel
// or none takes its allocation in closed form (loneShare) and never touches
// the share cache, and the lead's hypothesis is that closed form too, so a
// lone lead's whole life reads and writes no cache entry. Beside running
// kernels, a skipped maturation leaves exactly two things behind, which the
// retire applies (settleUnmatured): each running kernel's accrual to
// leadUntil under its old allocation, and the hypothesis's allocation for
// it, looked up as the maturation's rebalance looks it up (a counted,
// promoting cache lookup, a water-fill and a store on a miss), so the cache
// evolves as through the maturation. The completion timers the maturation
// would re-arm need nothing: soonest keeps every re-rounded completion after
// the lead's, and the rebalance this dispatch runs before it delivers (or
// the relaunch in place's) re-arms every one of them again. A deadline armed
// at leadUntil for a fault is not a completion: another client's plain
// launch may take the fault first without refreshing any lead, and the lead
// then matures at leadUntil with all of its work ahead
// (TestShortcutsMatchFullRebalance).
//
// The folded completion: a lead that a completion's continuation launches
// alone on the device — nothing running, no other lead pending or held, no
// fault armed, no series recorded — whose exact completion is due strictly
// before every queued event and within the horizon of the RunUntil running
// (simtime.Virtual.Hold), is not armed when armLead computes it: the arm is
// held until the continuation returns. launchLead still reserves the wake at
// launch, so every seq is taken in the order it was, and the held arm is
// keyed as of that wake, taking none. If the continuation has queued nothing
// due by then and left the lead alone, completeKernel folds the completion
// into the dispatch running (simtime.Virtual.Fold) and runs its own body for
// it — the unmatured retire the timer's dispatch would run, one engine event
// fewer; otherwise the arm is made as it was held. A launch that joins the
// lead refreshes it (armLead, which drops the hold), and HoldLead and Destroy
// drop it too. A step part relaunched in place holds its completion arm the
// same way: the arm is the last thing its completion does, so the fold takes
// the seq the arm would have taken (TestLoneStepsFoldBesideSentinel,
// TestFoldKeepsTimerPath).
//
// The Stop/Pause boundary: HoldLead freezes a lead whose host phase a
// SIGTSTP interrupted (the unfused arm's sleep would have frozen the same
// way), ReleaseLead resumes it — matching the deferred sleep-wake delivery of
// a stopped process. A lead whose wake the dispatch order already passed
// matures on hold, so in-flight kernels keep running through a pause, exactly
// as the paper's asynchronous kernels do (§5).
//
// The fault boundary: an armed kernel fault (InjectKernelFault) fails the
// first matching launch at or after its arming, and a lead's launch instant
// is its leadUntil (a held lead's: its release). A fault found armed at the
// step's start is consumed there and delivered at leadUntil; one armed while
// the lead is pending moves the lead's timer from the completion hypothesis
// to leadUntil, where maturation takes it — unless another client's plain
// launch got there first.

// LeadCapable reports whether the device realises a host lead as one engine
// event: every device but the full-recompute oracle (FullRebalance), where
// ExecLeadThen spends the lead as the caller's own sleep — two events,
// bit-identical by construction.
func (d *Device) LeadCapable() bool { return d.leadCapable }

// ExecLeadThen is ExecThen with a host-lead offset: the kernel is launched at
// now+lead and k receives the completion payload (nil or error) when it
// finishes. lead <= 0 degenerates to a plain ExecThen, launched at once (no
// event at this instant). The stream may be shared: other callers may launch
// on the client, or lead onto it, while the host phase runs, and the kernel
// queues behind whatever the stream holds when the phase ends. Same-instant
// ties follow the engine's order of the sleep the lead replaces (see the
// package's host-lead notes). *spec must stay unchanged until k runs.
func (c *Client) ExecLeadThen(p *simproc.Process, spec *KernelSpec, lead time.Duration, k func(any)) {
	switch {
	case lead <= 0:
		c.ExecThen(p, spec, k)
	case !c.dev.leadCapable:
		// The host phase is the process's own sleep, so a SIGTSTP defers its
		// wake — and with it the launch — to the SIGCONT. The launch it
		// continues into is pre-bound on a slot of the client's free-list:
		// one per lead in flight, since several callers may share the stream.
		var l *sleptLead
		if n := len(c.slept); n > 0 {
			l = c.slept[n-1]
			c.slept = c.slept[:n-1]
		} else {
			l = &sleptLead{c: c}
			l.fn = l.launch
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

// sleptLead is one pending lead on a device that is not LeadCapable: what
// the host-phase sleep's continuation launches. Engine context only, like
// the caller's process.
type sleptLead struct {
	c    *Client
	p    *simproc.Process
	spec *KernelSpec
	k    func(any)
	fn   func(any) // l.launch, bound once
}

// launch ends a slept host phase: it returns the slot to the client's
// free-list and launches the kernel as a plain ExecThen.
func (l *sleptLead) launch(any) {
	c, p, spec, k := l.c, l.p, l.spec, l.k
	l.p, l.spec, l.k = nil, nil, nil
	c.slept = append(c.slept, l)
	c.ExecThen(p, spec, k)
}

// launchLead creates a lead kernel whose host phase ends at now+lead; the
// completion (or the failure) reaches waiter's armed wait.
func (c *Client) launchLead(spec *KernelSpec, lead time.Duration, waiter *simproc.Process) {
	spec.normalize()
	d := c.dev
	if c.closed {
		waiter.Wake(ErrClientClosed)
		return
	}
	if err := d.takeFault(c); err != nil {
		// Armed kernel fault: consume it now, deliver it when the host
		// phase ends — the instant the unfused arm's launch would have
		// consumed and delivered it.
		d.eng.ScheduleDetachedBy(waiter.Owner(), lead, func() { waiter.Wake(err) })
		return
	}
	// The unfused arm's continuation would sleep here without touching the
	// device, so only leads whose wakes have passed mature. The sleep's wake
	// takes the next slot.
	d.matureLeads(nil)
	k := d.popKernel(c, spec, nil, waiter)
	k.leadUntil = d.eng.Now() + lead
	d.eng.Reserve(&k.wake, lead)
	d.leadsInsert(k)
	d.armLead(k)
}

// leadsInsert adds k to the pending-leads list, keeping wake order.
func (d *Device) leadsInsert(k *kernel) {
	i := len(d.leads)
	if i == 0 {
		d.leads = append(d.leads, k)
		return
	}
	for i > 0 && k.wake.Before(&d.leads[i-1].wake) {
		i--
	}
	d.leads = append(d.leads, nil)
	copy(d.leads[i+1:], d.leads[i:])
	d.leads[i] = k
}

// removeKernel deletes k from list, keeping order.
func removeKernel(list []*kernel, k *kernel) []*kernel {
	for i, lk := range list {
		if lk == k {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			return list[:len(list)-1]
		}
	}
	return list
}

// matureLeads launches every lead whose wake the dispatch order has passed, in
// wake order, each as of its own wake — replicating the event sequence the
// unfused arm's launches would have produced. firing follows the rebalanceAt
// contract; the return value reports whether firing's in-flight completion
// went stale.
func (d *Device) matureLeads(firing *kernel) (stale bool) {
	matured := false
	for len(d.leads) > 0 && d.leads[0].wake.Passed() {
		k := d.leads[0]
		d.leads = removeKernel(d.leads, k)
		if d.startLead(k, &k.wake, firing) {
			stale = true
		}
		matured = true
	}
	if matured {
		d.refreshLeads()
	}
	return stale
}

// startLead is the launch that ends k's host phase, at k.leadUntil: an
// armed fault fails it there, a busy stream queues it, an idle one starts it
// with a rebalance whose re-armed timers sort as if armed inside wake (nil:
// at the current dispatch point). It reports whether firing's in-flight
// completion went stale. The caller has taken k off the leads lists.
func (d *Device) startLead(k *kernel, wake *simtime.Timer, firing *kernel) bool {
	c := k.client
	if err := d.takeFault(c); err != nil {
		// A fault armed during the host phase: the launch fails, never
		// touching the stream. Delivered as an event of this instant — the
		// failure may destroy the client — so a signal queued behind the
		// wake at this instant reaches the process first, where the
		// two-event form's wake handed the failure over ahead of it (the one
		// tie ROADMAP keeps as unverified).
		w := k.waiter
		k.timer.Cancel()
		k.waiter, k.client = nil, nil
		d.kernelPool = append(d.kernelPool, k)
		d.eng.ScheduleDetachedBy(w.Owner(), 0, func() { w.Wake(err) })
		return k == firing
	}
	if c.current != nil {
		k.timer.Cancel()
		c.queue = append(c.queue, k)
		return k == firing
	}
	c.current = k
	k.started = k.leadUntil
	d.runningInsert(k)
	d.residencyChanged(c)
	return d.rebalanceAt(k.leadUntil, wake, firing)
}

// refreshLeads re-derives every pending lead's completion hypothesis after a
// change to the allocation state (running set, residency).
func (d *Device) refreshLeads() {
	for _, k := range d.leads {
		d.armLead(k)
	}
}

// streamTaken reports whether k would queue if its host phase ended now: the
// client has a kernel in flight, or another pending lead due first.
func (c *Client) streamTaken(k *kernel) bool {
	if c.current != nil {
		return true
	}
	for _, o := range c.dev.leads {
		if o != k && o.client == c && o.wake.Before(&k.wake) {
			return true
		}
	}
	return false
}

// armLead computes k's completion hypothesis — the exact completion instant if
// no further device events intervene before leadUntil — and arms its timer
// there, keyed as the idx-th timer the maturation rebalance arms. The
// hypothesis is the allocation vector the maturation rebalance will install
// for the running set with k at its client-order position, so in the
// no-event case the armed (when, seq) IS the completion's, bit-exactly. It
// reads the share cache (for a lead joining running kernels) and never writes
// it: no entry is stored or promoted and no hit or miss counted, so the
// cache's state and statistics stay those of the rebalances alone (an
// unmatured retire's lookup stands in for its maturation's). A lead
// that would queue arms nothing. leadExact records whether the deadline is
// that completion: not when a fault is armed (the deadline is then the launch
// instant, leadUntil) and not when a running kernel's re-rounded completion
// comes first (soonest). A zero-length kernel's completion is leadUntil too,
// so only the flag tells the two apart.
func (d *Device) armLead(k *kernel) {
	d.unhold(k)
	// A lead whose launch is about to fail fires at the launch instant.
	deadline, idx, exact := k.leadUntil, 0, false
	if !d.faultArmed(k.client) {
		if k.client.streamTaken(k) {
			// The transition that frees the stream matures k.
			k.leadExact = false
			k.timer.Cancel()
			return
		}
		var hyp float64
		var soonest time.Duration
		hyp, idx, soonest = d.hypothesis(k)
		// A rate the maturation would not grant leaves only a fallback.
		exact = hyp > 0
		if !exact {
			hyp = minAlloc
		}
		done := deadline + time.Duration(math.Ceil(k.work/hyp*1e9))
		exact = exact && done < soonest
		deadline = min(done, soonest)
	}
	k.leadExact = exact
	if exact && d.holding == holdLead && !d.eng.Blocked(deadline) && d.hold(k, deadline) {
		return
	}
	if t := k.timer; t.Pending() && t.When() == deadline && t.ArmedAs(&k.wake, idx) {
		// Unchanged hypothesis (a relaunch in place of an identically shaped
		// part leaves the lead's set as it was): the armed timer stands.
		return
	}
	k.timer = d.eng.RescheduleAs(k.owner, k.timer, &k.wake, idx, deadline, k.completeFn)
}

// hypothesis is lead k's maturation rebalance as if k started at leadUntil
// with nothing else changing: k's allocation, its running-set index and the
// soonest re-rounded completion (soonest). A lead entering an idle device
// runs alone: its allocation is the closed form (loneShare), at index 0, with
// no running kernel to re-round. Otherwise the allocation vector comes from
// the share cache when it holds the set, and from a dry run otherwise.
func (d *Device) hypothesis(k *kernel) (alloc float64, idx int, soonest time.Duration) {
	idx, taxed := d.leadSet(k)
	if len(d.running) == 0 {
		return d.loneShare(k, taxed), 0, math.MaxInt64
	}
	hyp := d.shareCachePeek(k, idx, taxed)
	if hyp == nil {
		hyp = d.dryRun(k, idx, taxed)
	}
	return hyp[idx], idx, d.soonest(k, idx, hyp)
}

// leadSet reports where lead k enters the running set when it matures — the
// water-fill iterates in slice order, so position affects float summation
// order and must match runningInsert's — and whether that set pays the
// residency tax.
func (d *Device) leadSet(k *kernel) (idx int, taxed bool) {
	idx = len(d.running)
	for i, rk := range d.running {
		if rk.client.orderIdx > k.client.orderIdx {
			idx = i
			break
		}
	}
	resident := d.resident
	if !k.client.resident {
		resident++
	}
	return idx, d.taxed(resident)
}

// dryRun computes the allocation vector of the running set with k inserted
// at idx, as the maturation's cache miss would (fill), and returns it; every
// kernel keeps its true allocation. The vector is d.scratchAllocs.
func (d *Device) dryRun(k *kernel, idx int, taxed bool) []float64 {
	run := d.withLead(k, idx)
	saved := d.scratchAllocs[:0]
	for _, rk := range run {
		saved = append(saved, rk.alloc)
	}
	d.fill(run, taxed)
	// Swap: the kernels get their true allocations back, the scratch keeps
	// the hypothetical ones.
	for i, rk := range run {
		saved[i], rk.alloc = rk.alloc, saved[i]
	}
	d.scratchAllocs = saved
	return saved
}

// withLead builds the running set with lead k inserted at idx, in
// d.scratchRun.
func (d *Device) withLead(k *kernel, idx int) []*kernel {
	run := d.scratchRun[:0]
	run = append(run, d.running[:idx]...)
	run = append(run, k)
	run = append(run, d.running[idx:]...)
	d.scratchRun = run
	return run
}

// soonest is the soonest completion lead k's maturation (allocation vector
// hyp, k at idx) would re-round a running kernel's onto, where that is
// earlier than the one armed (MaxInt64: none). The maturation re-rounds every
// running kernel's completion as of leadUntil, which can land a nanosecond
// before the armed completion (where the rate stands, or the kernel is all
// but done): the lead fires there instead, to mature in time.
func (d *Device) soonest(k *kernel, idx int, hyp []float64) time.Duration {
	soonest := time.Duration(math.MaxInt64)
	for i, rk := range d.running {
		h := hyp[i]
		if i >= idx {
			h = hyp[i+1]
		}
		if rk.alloc <= 0 || h <= 0 {
			continue
		}
		work := rk.work - rk.alloc*(k.leadUntil-rk.lastUpdate).Seconds()
		if work < 0 {
			work = 0
		}
		at := k.leadUntil + time.Duration(math.Ceil(work/h*1e9))
		if at < rk.lastUpdate+time.Duration(math.Ceil(rk.work/rk.alloc*1e9)) {
			soonest = min(soonest, at)
		}
	}
	return soonest
}

// HoldLead freezes the client's pending host leads (SIGTSTP landed inside
// their host phase): no hypothesis stays armed, and each wake keeps its
// place in the engine's order, as the stopped process's sleep would. A lead
// whose wake the dispatch order already passed matures instead: its kernel
// is in flight (or queued) and keeps going through the pause, exactly as the
// unfused arm's asynchronously launched kernel would. So a signal landing at
// a lead's leadUntil finds the host phase elapsed exactly when its event
// sorts after the wake. No-op without a pending lead.
func (c *Client) HoldLead() {
	d := c.dev
	d.matureLeads(nil)
	for i := 0; i < len(d.leads); {
		k := d.leads[i]
		if k.client != c {
			i++
			continue
		}
		k.timer.Cancel()
		d.unhold(k)
		d.leads = removeKernel(d.leads, k)
		d.held = append(d.held, k)
	}
}

// ReleaseLead resumes held leads (SIGCONT). One whose wake is still ahead in
// the dispatch order re-arms and matures there; one whose wake passed while
// held launches now — the deferred sleep-wake of a stopped unfused process
// delivers at exactly the resume. No-op without a held lead.
func (c *Client) ReleaseLead() {
	d := c.dev
	d.matureLeads(nil)
	for i := 0; i < len(d.held); {
		k := d.held[i]
		if k.client != c {
			i++
			continue
		}
		d.held = removeKernel(d.held, k)
		if k.wake.Passed() {
			k.leadUntil = d.eng.Now()
			d.startLead(k, nil, nil)
			d.refreshLeads()
			continue
		}
		d.leadsInsert(k)
		d.armLead(k)
	}
}
