package simgpu

import (
	"fmt"
	"math"
	"time"

	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// KernelSpec describes one GPU kernel (or fused group of kernels forming one
// logical step/op).
//
// Specs travel by pointer through the whole launch path (Launch, Exec,
// ExecThen, ExecLeadThen) so hot loops can keep one spec alive and mutate
// Name/Duration between launches instead of copying the struct per call.
// The device reads the spec only at launch: the kernel keeps its work and
// its share-cache fingerprint from there on. So a spec may change once the
// call that launched it returns — except ExecLeadThen's on a device that is
// not LeadCapable, which launches when the host phase ends and so needs the
// spec unchanged until its continuation runs.
type KernelSpec struct {
	Name string
	// Duration is the kernel's solo run time on an unshared reference GPU.
	Duration time.Duration
	// Demand is the SM fraction the kernel occupies when unconstrained,
	// in (0, 1]. Defaults to 1.
	Demand float64
	// Weight is the kernel's scheduling pressure under PolicyMPS — a proxy
	// for how many thread blocks it keeps resident. Defaults to Demand.
	// Compute-saturating kernels (Graph SGD) should set Weight > Demand.
	Weight float64
}

// normalize applies the defaults: a Demand outside (0, 1] or NaN is 1, and a
// Weight that is not finite and positive is unset (Demand). The lone-kernel
// closed form (loneShare) relies on both: with a NaN demand or an infinite
// weight the water-fill's arithmetic yields NaN.
func (s *KernelSpec) normalize() {
	if !(s.Demand > 0 && s.Demand <= 1) {
		s.Demand = 1
	}
	if !(s.Weight > 0 && s.Weight <= math.MaxFloat64) {
		s.Weight = s.Demand
	}
	if s.Duration < 0 {
		s.Duration = 0
	}
}

// kernel is an in-flight kernel.
type kernel struct {
	client *Client
	// key is the kernel's share-cache fingerprint slot: its client and the
	// bits of its spec's Weight and Demand, taken at launch.
	key shareKey

	// size is the kernel's total work in reference SM-seconds, Demand ×
	// Duration at launch; work is what remains of it.
	size float64
	work float64
	// alloc is the current SM fraction granted.
	alloc float64
	// lastUpdate is the engine time work was last accrued at.
	lastUpdate time.Duration

	// timer is the completion event. Its handle never leaves the kernel,
	// so reschedules after a rebalance reuse the same Timer allocation.
	timer *simtime.Timer
	// completeFn is bound once per kernel: completion is rescheduled on
	// every rebalance and must not allocate.
	completeFn func()
	onComplete func(error)
	// waiter, when set, receives the completion (nil or an error) through
	// its wait slot instead of onComplete. This is the blocking/inline Exec
	// path: delivering to a pre-bound process wait costs no closure.
	waiter *simproc.Process
	// started is when the kernel reached the head of its stream.
	started time.Duration
	// runIdx is the kernel's slot in the device's running-set cache, -1
	// while queued, leading or retired.
	runIdx int32

	// Host-lead state (ExecLeadThen). A lead (on the device's leads or held
	// list) is not yet launched: it reaches the stream at leadUntil (maturation), when
	// the dispatch order passes wake, standing in for the caller's host phase
	// without a separate sleep event. A lead frozen by HoldLead (SIGTSTP
	// landing inside the host phase) waits on the held list until
	// ReleaseLead. A lead's timer holds its armed no-further-events
	// completion hypothesis (When, and ArmedAs its wake at the running-set
	// index), so a refresh that finds both unchanged skips the re-arm;
	// leadExact records that the armed deadline is that completion itself,
	// not the launch instant of a pending fault or a running kernel's
	// re-rounded completion (armLead).
	// The wake lives in the kernel, so it survives recycling.
	leadUntil time.Duration
	leadExact bool
	wake      simtime.Timer
}

// popKernel recycles a kernel struct from the pool (or allocates one),
// resetting only the fields a launch mutates: the completion timer and its
// closure survive recycling, and retirement already cleared the delivery
// fields. This per-field reset replaces a full struct re-zero that copied ~130
// bytes per launch.
func (d *Device) popKernel(c *Client, spec *KernelSpec, onComplete func(error), waiter *simproc.Process) *kernel {
	var k *kernel
	if n := len(d.kernelPool); n > 0 {
		k = d.kernelPool[n-1]
		d.kernelPool[n-1] = nil
		d.kernelPool = d.kernelPool[:n-1]
		k.client = c
		k.alloc = 0
		k.lastUpdate = 0
		k.onComplete = onComplete
		k.waiter = waiter
		k.runIdx = -1
		k.started = 0
		k.leadUntil = 0
		k.leadExact = false
	} else {
		k = &kernel{
			client:     c,
			onComplete: onComplete,
			waiter:     waiter,
			runIdx:     -1,
		}
		k.completeFn = func() { d.completeKernel(k) }
	}
	k.load(spec)
	return k
}

// load takes the kernel's constants from spec: its share-cache fingerprint
// and its work.
func (k *kernel) load(spec *KernelSpec) {
	k.key = shareKey{c: k.client, w: math.Float64bits(spec.Weight), d: math.Float64bits(spec.Demand)}
	k.size = spec.Demand * spec.Duration.Seconds()
	k.work = k.size
}

// demand and weight are the kernel's spec values as of launch.
func (k *kernel) demand() float64 { return math.Float64frombits(k.key.d) }
func (k *kernel) weight() float64 { return math.Float64frombits(k.key.w) }

// Launch enqueues a kernel on the client's (serial) stream. onComplete fires
// from engine-callback context when the kernel finishes or is aborted; it
// may be nil. The returned handle is opaque; launching is asynchronous,
// matching CUDA semantics — this is exactly why the paper's imperative
// interface cannot stop in-flight work (§5).
func (c *Client) Launch(spec *KernelSpec, onComplete func(error)) error {
	return c.launch(spec, onComplete, nil)
}

// launch enqueues a kernel delivering either to onComplete or to waiter's
// wait slot (exactly one of the two is non-nil; both nil is fire-and-forget).
func (c *Client) launch(spec *KernelSpec, onComplete func(error), waiter *simproc.Process) error {
	spec.normalize()
	d := c.dev
	if c.closed {
		if waiter != nil {
			waiter.Wake(ErrClientClosed)
		} else if onComplete != nil {
			onComplete(ErrClientClosed)
		}
		return ErrClientClosed
	}
	if err := d.takeFault(c); err != nil {
		// Armed kernel fault: deliver the failure through the same path a
		// closed client uses, never touching the device's running set.
		if waiter != nil {
			waiter.Wake(err)
		} else if onComplete != nil {
			onComplete(err)
		}
		return err
	}
	// Leads whose wakes have passed reach their streams first, so this
	// launch's rebalance sees exactly the set an unfused arm would.
	d.matureLeads(nil)
	k := d.popKernel(c, spec, onComplete, waiter)
	if c.current == nil {
		c.current = k
		k.started = d.eng.Now()
		d.runningInsert(k)
		d.residencyChanged(c)
		// Fold an open fusion window: this launch's rebalance covers the
		// deferred completion transition too (both at the same instant).
		if d.fusing {
			d.fusing = false
			d.fusedFolds++
		}
		d.rebalance()
	} else {
		d.flushFusion()
		c.queue = append(c.queue, k)
	}
	return nil
}

// Exec launches the kernel and parks the process until completion,
// returning the kernel's completion error. This is the blocking API side
// tasks use; the completion delivers straight into the process's wait slot,
// so the whole launch→park→complete→wake cycle allocates nothing.
//
// On a LeadCapable device the process's deferred sleep
// (simproc.Process.DeferSleep), if any, becomes the kernel's host lead: the
// sleep and the launch cost one engine event and one park, as ExecLeadThen's
// do. Elsewhere BeginWait spends it as the sleep itself.
func (c *Client) Exec(p *simproc.Process, spec *KernelSpec) error {
	var lead time.Duration
	if c.dev.fusable {
		lead = p.TakeDeferredSleep()
	}
	p.BeginWait(nil)
	if lead > 0 {
		c.launchLead(spec, lead, p)
	} else {
		_ = c.launch(spec, nil, p)
	}
	// spec.Name is used verbatim as the park label: Exec runs once per
	// simulated kernel and a "kernel:" prefix concat here shows up in
	// profiles.
	return execResult(p.Await(spec.Name))
}

// ExecThen is the inline form of Exec: k receives the completion payload
// (nil on success, otherwise an error) once the kernel finishes.
//
// Called from within a kernel-completion delivery (the self-loop: a step or
// pipeline-op continuation immediately issuing the next kernel), it takes
// the fused path: the still-armed wait slot is re-armed in place
// (ChainWait), and the launch folds the deferred completion rebalance into
// its own — completion and relaunch become one dispatch. The next part of a
// step whose client has a part source (SetPartSource) does not get here at
// all: the device relaunches it inside the completion (see completeKernel),
// which is exact because this call is all the continuation would do.
func (c *Client) ExecThen(p *simproc.Process, spec *KernelSpec, k func(any)) {
	if p.ChainWait(spec.Name, k) {
		_ = c.launch(spec, nil, p)
		return
	}
	p.BeginWait(k)
	_ = c.launch(spec, nil, p)
	p.EndWait(spec.Name)
}

// PartSource supplies the kernels of a multi-part step after its first:
// sidetask's imperative steps on the event loop, eight kernels per step.
// Registering one on a client (SetPartSource) promises that a completion
// delivered to an inline process waiting on one of the client's kernels
// continues, whenever NextPart has a part left, with exactly an ExecThen of
// that part on the client, with the continuation of the wait that completed.
type PartSource interface {
	// NextPart points the step's spec at its next kernel and returns it, or
	// returns nil, changing nothing, once every part has been issued.
	NextPart() *KernelSpec
}

// SetPartSource registers the client's part source (nil: none), which lets
// the device relaunch a step's next part inside the previous part's
// completion (completeKernel).
func (c *Client) SetPartSource(src PartSource) { c.parts = src }

// execResult converts a completion wake payload to the Exec error.
func execResult(res any) error {
	if res == nil {
		return nil
	}
	err, ok := res.(error)
	if !ok {
		return fmt.Errorf("simgpu: unexpected completion payload %T", res)
	}
	return err
}

// QueueDepth reports how many kernels are on the client's stream: the
// running one and those queued behind it. A host lead counts once the
// dispatch order has passed its wake (and it is not held), matured or not:
// before that the equivalent unfused caller is still in its host phase with
// nothing submitted.
func (c *Client) QueueDepth() int {
	n := len(c.queue)
	if c.current != nil {
		n++
	}
	return n + c.launchedLeads()
}

// Busy reports whether the client has a kernel in flight on the device. A
// host lead counts only once the dispatch order has passed its wake: before
// that (or while held) the equivalent unfused client would still be in its
// host-side phase with nothing submitted, and the worker's grace-kill check
// relies on exactly that distinction.
func (c *Client) Busy() bool {
	return c.current != nil || c.launchedLeads() > 0
}

// launchedLeads counts the client's leads whose launch the dispatch order has
// passed but no device transition has carried out yet.
func (c *Client) launchedLeads() (n int) {
	for _, k := range c.dev.leads {
		if k.client == c && k.wake.Passed() {
			n++
		}
	}
	return n
}

// rebalance recomputes every running kernel's SM allocation after any change
// in the running set, accrues progress, updates traces, and reschedules
// completion events; pending host-lead hypotheses are refreshed against the
// new allocation state.
func (d *Device) rebalance() {
	if d.cfg.FullRebalance {
		d.rebalanceFull()
		return
	}
	d.rebalanceAt(d.eng.Now(), nil, nil)
	d.refreshLeads()
}

// rebalanceAt is the incremental scheduler pass, parameterized by the
// instant the triggering transition happened at. For ordinary transitions at
// is the current engine time; for a host-lead maturation it is the lead's
// leadUntil — possibly in the past of the engine clock, because maturation
// runs lazily at the first device event after the lead's wake passes. All
// arithmetic (accrual, water-fill, tax, trace points, completion deadlines)
// is computed as of at, so a lazy maturation reproduces bit-exactly the
// rebalance an eager launch at leadUntil would have performed; completion
// delays are expressed relative to the real clock.
//
// The pass trusts the device's transition-maintained caches: d.running
// already reflects the launch/completion/abort/maturation that triggered the
// rebalance (same kernels, same client order the full recompute would
// derive), and d.resident already counts the ResidencyTax predicate. A
// kernel alone on the device gets its allocation in closed form (loneShare),
// without touching the share cache; a set of two or more takes its converged
// allocation vector straight from the cache when its fingerprint is there,
// from the water-fill otherwise. Each kernel's completion timer is
// re-armed in place (simtime's pending-timer Reschedule) rather than
// canceled and re-pushed. Everything numeric — accrual, allocation, tax
// scaling, completion deadlines and their (when, seq) ordering — is computed
// exactly as the full pass computes it, which is what the float-exact
// differential oracle asserts.
//
// wake, when non-nil, is the maturing lead's virtual wake: the pass stands
// in for a launch inside it, so every completion it re-arms is keyed as the
// i-th timer armed there (simtime.Virtual.RescheduleAs), i its running-set
// index — the order an eager launch's pass would arm them in.
//
// firing, when non-nil, is the kernel whose completion dispatch this pass runs
// under (a due lead maturing inside completeKernel). The return value reports
// whether firing's completion moved later than the dispatch instant — the fire
// was premature and has been re-armed, so the caller must abandon the
// in-flight completion.
func (d *Device) rebalanceAt(at time.Duration, wake *simtime.Timer, firing *kernel) (stale bool) {
	running := d.running
	accrue(running, at)

	taxed := d.taxed(d.resident)
	switch {
	case len(running) == 1:
		running[0].alloc = d.loneShare(running[0], taxed)
	case len(running) > 1 && !d.shareCacheHit(running, taxed):
		d.fill(running, taxed)
		d.shareCacheStore(running, taxed)
	}

	var total float64
	for i, k := range running {
		total += k.alloc
		if d.scheduleCompletionAt(k, i, at, wake, firing) {
			stale = true
		}
	}
	if !d.cfg.NoTraces {
		for _, k := range running {
			k.client.occTr.Add(at, k.alloc)
		}
		for _, c := range d.order {
			if c.current == nil {
				c.occTr.Add(at, 0)
			}
		}
		d.occ.Add(at, total)
	}
	return stale
}

// accrue advances every kernel of set to instant at under its current
// allocation.
func accrue(set []*kernel, at time.Duration) {
	for _, k := range set {
		if k.alloc > 0 {
			k.work -= k.alloc * (at - k.lastUpdate).Seconds()
			if k.work < 0 {
				k.work = 0
			}
		}
		k.lastUpdate = at
	}
}

// rebalanceFull is the original full recompute: it rederives the running set
// by walking the client list, recounts residency, cancels and re-pushes every
// completion timer. Kept verbatim as the differential oracle for the
// incremental pass (DeviceConfig.FullRebalance); host leads never exist on a
// full-rebalance device (LeadCapable is false).
func (d *Device) rebalanceFull() {
	now := d.eng.Now()

	running := d.scratchRun[:0]
	for _, c := range d.order {
		if c.current != nil {
			running = append(running, c.current)
		}
	}
	d.scratchRun = running

	// Accrue progress under the old allocations.
	for _, k := range running {
		if k.alloc > 0 {
			k.work -= k.alloc * (now - k.lastUpdate).Seconds()
			if k.work < 0 {
				k.work = 0
			}
		}
		k.lastUpdate = now
		k.timer.Cancel()
	}

	d.assignAllocations(running)

	// MPS context-multiplexing tax: with two or more resident client
	// contexts, every kernel pays a small scheduling overhead.
	if d.cfg.ResidencyTax > 0 && d.cfg.Policy == PolicyMPS {
		resident := 0
		for _, c := range d.order {
			if c.memUsed > 0 || c.current != nil {
				resident++
			}
		}
		if resident >= 2 {
			scale := 1 / (1 + d.cfg.ResidencyTax)
			for _, k := range running {
				k.alloc *= scale
			}
		}
	}

	var total float64
	for _, k := range running {
		total += k.alloc
		d.scheduleCompletion(k)
	}
	if !d.cfg.NoTraces {
		for _, k := range running {
			k.client.occTr.Add(now, k.alloc)
		}
		for _, c := range d.order {
			if c.current == nil {
				c.occTr.Add(now, 0)
			}
		}
		d.occ.Add(now, total)
	}
}

// taxed is the MPS context-multiplexing predicate of the incremental passes:
// with two or more resident client contexts, every kernel pays a small
// scheduling overhead.
func (d *Device) taxed(resident int) bool {
	return d.cfg.ResidencyTax > 0 && d.cfg.Policy == PolicyMPS && resident >= 2
}

// fill computes set's post-tax allocation vector into its kernels: the
// water-fill, then the residency tax when taxed. It is the incremental
// pass's cache miss and the lead hypothesis's dry run, for sets of two or
// more kernels (loneShare covers one).
func (d *Device) fill(set []*kernel, taxed bool) {
	d.assignAllocations(set)
	if taxed {
		for _, k := range set {
			k.alloc *= d.taxScale
		}
	}
}

// loneShare is fill's allocation for k running alone, in closed form: the
// water-fill's only share is w/w·1.0 = 1.0 and time-slicing's cw/cw = 1.0 for
// any finite positive weight (normalize and NewClient see to that), and a
// demand never exceeds 1, so both policies grant max(minAlloc, demand), then
// the residency tax. The operations and their order are fill's (the builtin
// max is math.Max, inline), so the bits are too (TestLoneShareMatchesFill).
func (d *Device) loneShare(k *kernel, taxed bool) float64 {
	alloc := max(minAlloc, k.demand())
	if taxed {
		alloc *= d.taxScale
	}
	return alloc
}

// assignAllocations computes per-kernel SM fractions under the device
// policy. Rates are in reference-GPU units: a device grants at most 1.0
// total.
func (d *Device) assignAllocations(running []*kernel) {
	switch d.cfg.Policy {
	case PolicyTimeSlice:
		// Contexts round-robin on the whole device, with quanta granted in
		// proportion to client weight (a multi-stream training process
		// keeps more runnable work queued than a single-stream side task,
		// so it wins more quanta). Within its quanta a kernel advances at
		// its demand.
		var totalW float64
		for _, k := range running {
			totalW += clientWeightOf(k)
		}
		for _, k := range running {
			share := clientWeightOf(k) / totalW
			k.alloc = math.Max(minAlloc, k.demand()*share)
		}
	default: // PolicyMPS: weighted water-filling capped by demand.
		slots := d.scratchSlots[:0]
		for _, k := range running {
			w := k.weight()
			if k.client.cfg.Weight > 0 {
				w = k.client.cfg.Weight
			}
			slots = append(slots, allocSlot{k: k, w: w})
		}
		d.scratchSlots = slots
		remaining := 1.0
		for {
			var totalW float64
			for _, s := range slots {
				if !s.fixed {
					totalW += s.w
				}
			}
			if totalW == 0 {
				break
			}
			progressed := false
			for i := range slots {
				s := &slots[i]
				if s.fixed {
					continue
				}
				share := s.w / totalW * remaining
				demand := s.k.demand()
				if demand <= share {
					s.k.alloc = math.Max(minAlloc, demand)
					remaining -= demand
					s.fixed = true
					progressed = true
				}
			}
			if !progressed {
				// No kernel is demand-capped: distribute by weight.
				for i := range slots {
					s := &slots[i]
					if !s.fixed {
						s.k.alloc = math.Max(minAlloc, s.w/totalW*remaining)
					}
				}
				break
			}
		}
	}
}

// allocSlot is the MPS water-filling work item (in Device scratch storage
// so per-rebalance allocation stays zero).
type allocSlot struct {
	k     *kernel
	w     float64
	fixed bool
}

// clientWeightOf reports a kernel's scheduling weight at client
// granularity (for time-slicing): the client weight if set, else 1.
func clientWeightOf(k *kernel) float64 {
	if w := k.client.cfg.Weight; w > 0 {
		return w
	}
	return 1
}

// scheduleCompletion (re)schedules the kernel's completion under its current
// rate: a fresh push on the full-recompute path (the timer was canceled during
// accrual), an in-place re-arm on the incremental path (the timer is still
// pending) — identical (when, seq) outcomes either way.
func (d *Device) scheduleCompletion(k *kernel) {
	if k.alloc <= 0 {
		k.timer.Cancel() // no rate: park the completion (full path already did)
		return
	}
	secs := k.work / k.alloc
	delay := time.Duration(math.Ceil(secs * 1e9))
	k.timer = d.eng.Reschedule(k.timer, delay, "", k.completeFn)
}

// scheduleCompletionAt is scheduleCompletion as of instant at: the completion
// lands at at + ceil(work/alloc) — the same absolute (when) an eager rebalance
// at at would have armed — keyed as the i-th timer armed inside wake when one
// is given (see rebalanceAt). When k is the kernel whose completion dispatch
// this pass runs under (firing), a deadline at-or-before the dispatch instant
// lets the in-flight completion proceed (re-arming it would push a duplicate
// event), and a later deadline re-arms the timer and reports the fire stale.
func (d *Device) scheduleCompletionAt(k *kernel, i int, at time.Duration, wake *simtime.Timer, firing *kernel) bool {
	if k.alloc <= 0 {
		k.timer.Cancel() // no rate: park the completion
		return false
	}
	secs := k.work / k.alloc
	delay := time.Duration(math.Ceil(secs*1e9)) + (at - d.eng.Now())
	if k == firing && delay <= 0 && (wake == nil || k.timer.ArmedAs(wake, i)) {
		return false
	}
	// A fire at the right instant but keyed ahead of the wake's launch came
	// too early in the instant: it is re-armed where that launch puts it.
	if wake != nil {
		k.timer = d.eng.RescheduleAs(k.timer, wake, i, d.eng.Now()+delay, "", k.completeFn)
	} else {
		k.timer = d.eng.Reschedule(k.timer, delay, "", k.completeFn)
	}
	return k == firing
}

// completeKernel retires a finished kernel, promotes the client's next
// queued kernel, and rebalances — or, on a fusable device, defers the
// rebalance into a fusion window: the completion delivery below runs at the
// same virtual instant, and when its continuation immediately launches the
// next kernel (the ExecThen self-loop, the pipeline's op chain), the launch
// folds the deferred completion transition into its own single rebalance —
// one accrual, one water-fill (typically a share-cache hit, since the
// steady-state successor has the same fingerprint), one completion-timer
// pass, where the unfused path pays all three twice. If nothing relaunches,
// the flush after delivery settles the window at the same instant; either
// way the final state is bit-identical to the unfused sequence (same-instant
// trace points overwrite, rescheduled timers keep their relative order).
//
// Two shapes skip even that round trip, on a fusable device only:
//
//   - A host lead firing as its own completion (retiresUnmatured) retires
//     without maturing: alone on the device, the maturation rebalance, the
//     running-set insert and remove and the flush rebalance over an empty set
//     change nothing; beside running kernels, the retire applies what the
//     maturation would leave behind (settleUnmatured) and the completion's
//     fusion window rebalances at this dispatch exactly as after it.
//   - An imperative step's next part is relaunched in place
//     (relaunchInPlace), after an unmatured retire too: the kernel stays in
//     (or takes) its running-set slot, takes the next part's constants and
//     runs the launch's rebalance, with no delivery, pool round trip or
//     residency flip in between.
//
// Neither moves an engine event: both run the same arithmetic on the same
// timers at the same (when, seq), and an unmatured retire makes the
// maturation's share-cache lookup, so only the fold count differs from the
// round trip: a lead retired alone and a part relaunched in place open no
// fusion window.
func (d *Device) completeKernel(k *kernel) {
	c := k.client
	if c == nil {
		return // stale completion (aborted)
	}
	unmatured := d.retiresUnmatured(k)
	if unmatured {
		d.unmatured++
		k.started = k.leadUntil
		d.leads[0] = nil
		d.leads = d.leads[:0]
		d.settleUnmatured(k)
	} else if d.matureLeads(k) || c.current != k {
		// Leads whose wakes have passed mature first — including k itself,
		// if this fire is its armed lead hypothesis (which sorts after the
		// wake). A maturation that pushed k's true completion later, or
		// queued k, has re-armed or parked its timer: the fire was
		// premature, abandon it.
		return
	}
	d.kernels++
	d.workDone += k.size
	if len(c.queue) == 0 && d.relaunchInPlace(k) {
		return
	}
	switch {
	case !unmatured:
		c.current = nil
		if len(c.queue) > 0 {
			// Compact in place: sliding the slice head would shed capacity on
			// every pop (reallocating on the next push) and pin retired pooled
			// kernels in the dead prefix. Queues are a few kernels deep.
			c.current = c.queue[0]
			n := copy(c.queue, c.queue[1:])
			c.queue[n] = nil
			c.queue = c.queue[:n]
			c.current.started = d.eng.Now()
			d.runningReplace(k, c.current)
		} else {
			d.runningRemove(k)
		}
		d.residencyChanged(c)
	case len(d.running) == 0:
		// Alone, an unmatured lead leaves nothing to settle.
		d.retire(k)
		return
	}
	fused := d.fusable
	if fused {
		d.fusing = true
	} else {
		d.rebalance()
	}
	d.retire(k)
	if fused {
		d.flushFusion()
	}
}

// retire returns a completed kernel to the pool and delivers its completion.
// The caller must not touch k again: the delivery may launch a new kernel
// that reuses it.
func (d *Device) retire(k *kernel) {
	cb, w := k.onComplete, k.waiter
	k.onComplete, k.waiter, k.client = nil, nil, nil
	d.kernelPool = append(d.kernelPool, k)
	if w != nil {
		// Chained delivery: the wait slot stays armed while the
		// continuation runs, so an immediate ExecThen re-arms it in place
		// (simproc.ChainWait) instead of a disarm/re-arm round trip.
		w.WakeChained(nil)
	} else if cb != nil {
		cb(nil)
	}
}

// retiresUnmatured reports whether the firing lead k may retire without
// maturing: it is the device's only pending lead, no fault is armed for its
// client, the device records no series, and its timer was armed at its exact
// completion (leadExact), so its stream was idle when armed and every
// transition since has re-armed it. Then the round trip's maturation would
// start k at leadUntil, install the hypothesis's allocation vector (the armed
// deadline is that rebalance's, bit for bit) and find k's completion due at
// this very dispatch, with every running kernel's re-rounded completion
// later (soonest); the completion would then take k off the device again and
// rebalance at this instant, overwriting every re-arm the maturation made.
// A deadline armed at leadUntil for a fault is not a completion: the fault
// may since have gone to another client's launch, which refreshes no lead,
// and k then matures with all its work ahead of it.
func (d *Device) retiresUnmatured(k *kernel) bool {
	return k.leadExact && len(d.leads) == 1 && d.leads[0] == k &&
		!d.faultArmed(k.client) && d.cfg.NoTraces
}

// settleUnmatured applies to the running kernels what the skipped maturation
// of lead k would have left behind once its completion's rebalance re-armed
// their timers: each accrues to leadUntil under its current allocation and
// takes the allocation that maturation installs, looked up as its rebalance
// looks it up — a counted, promoting share-cache lookup of the set with k at
// its leadSet index, and on a miss the water-fill and a store — so the cache
// evolves exactly as through the maturation. k's own allocation is set too,
// as the maturation sets it; nothing reads it before it is retired or
// relaunched. Alone, k leaves nothing behind.
func (d *Device) settleUnmatured(k *kernel) {
	if len(d.running) == 0 {
		return
	}
	accrue(d.running, k.leadUntil)
	idx, taxed := d.leadSet(k)
	run := d.withLead(k, idx)
	if !d.shareCacheHit(run, taxed) {
		d.fill(run, taxed)
		d.shareCacheStore(run, taxed)
	}
}

// relaunchInPlace launches the next part of k's step into k itself, inside
// k's completion, and reports whether it did. It applies when the waiting
// process would run its continuation at once (simproc.Process.ChainReady) and
// the client's part source (SetPartSource) has a part left: that
// continuation is, by the source's contract, an ExecThen of that part, which
// would take k back from the pool and start it in the slot it just left, at
// this instant, folding the completion into its launch rebalance. Here k
// keeps its slot and its residency, takes the part's constants and runs that
// rebalance; the process's wait is re-armed as ChainWait would
// (simproc.Process.ChainInPlace). After an unmatured retire k has no slot
// and takes the one the launch would give it, beside whatever runs. An armed
// fault for the client would fail the launch instead, and a queued successor
// would start first; both take the round trip.
func (d *Device) relaunchInPlace(k *kernel) bool {
	c, p := k.client, k.waiter
	if !d.fusable || c.parts == nil || p == nil || d.faultArmed(c) || !p.ChainReady() {
		return false
	}
	spec := c.parts.NextPart()
	if spec == nil {
		return false
	}
	spec.normalize()
	p.ChainInPlace(spec.Name)
	d.relaunches++
	if k.runIdx < 0 {
		// An unmatured lead never reached the stream: the launch starts the
		// part on its idle stream.
		c.current = k
		d.runningInsert(k)
		d.residencyChanged(c)
	}
	k.load(spec)
	k.alloc = 0
	k.started = d.eng.Now()
	d.rebalance()
	return true
}
