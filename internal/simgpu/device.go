// Package simgpu models GPU devices as discrete-event resources: streaming
// multiprocessor (SM) capacity shared between client processes' kernels, and
// device memory with per-client limits.
//
// It is the stand-in for the paper's RTX 6000 Ada / RTX 3080 hardware and
// for the CUDA MPS layer (paper §4.5): per-client memory caps reproduce
// MPS's memory protection (the offending client alone sees the OOM), and the
// two sharing policies reproduce the co-location baselines —
//
//   - PolicyMPS: weighted space-sharing. Concurrent kernels from different
//     clients each receive an SM fraction proportional to their scheduling
//     weight (their "thread-block pressure"), capped by their demand.
//     Compute-hungry kernels with large weights (Graph SGD) squeeze the
//     training kernels hard; light kernels barely register. This is what
//     makes the paper's MPS-baseline overheads span 9.5%–231%.
//   - PolicyTimeSlice: naive co-location without MPS. CUDA contexts
//     time-slice the whole device, so with n active clients each runs at
//     1/n of its demand — the paper's ~45–64% naive overhead.
//
// Kernels within one client always serialize (one stream), matching both the
// pipeline engine's op stream and the side tasks' step loop.
package simgpu

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"freeride/internal/simtime"
	"freeride/internal/trace"
)

// Sharing policies.
type Policy int

const (
	// PolicyMPS is CUDA-MPS-style weighted space sharing.
	PolicyMPS Policy = iota + 1
	// PolicyTimeSlice is naive context time-slicing.
	PolicyTimeSlice
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyMPS:
		return "mps"
	case PolicyTimeSlice:
		return "timeslice"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Errors reported by the device.
var (
	// ErrClientOOM means an allocation exceeded the client's MPS memory
	// limit; only the offending client is affected.
	ErrClientOOM = errors.New("simgpu: client memory limit exceeded")
	// ErrDeviceOOM means an allocation exceeded physical device memory.
	ErrDeviceOOM = errors.New("simgpu: device out of memory")
	// ErrKernelAborted means the kernel's client was destroyed mid-flight.
	ErrKernelAborted = errors.New("simgpu: kernel aborted")
	// ErrClientClosed means an operation was attempted on a destroyed client.
	ErrClientClosed = errors.New("simgpu: client destroyed")
	// ErrInjectedFault is the completion error delivered by an armed
	// kernel fault (simfault's fail-kernel). The manager's recovery path
	// recognizes it by its message, which therefore crosses RPC exit
	// reports verbatim — keep InjectedFaultMsg in sync.
	ErrInjectedFault = errors.New(InjectedFaultMsg)
)

// InjectedFaultMsg is ErrInjectedFault's message; error strings that
// contain it mark an infrastructure fault (recoverable) rather than a task
// failure (terminal).
const InjectedFaultMsg = "simgpu: injected kernel fault"

// minAlloc guards against zero rates from degenerate weights.
const minAlloc = 1e-6

// DeviceConfig describes one GPU.
type DeviceConfig struct {
	Name string
	// MemBytes is physical device memory (e.g. 48 GiB for RTX 6000 Ada).
	MemBytes int64
	// Policy selects the co-location sharing model. Default PolicyMPS.
	Policy Policy
	// ResidencyTax is the fractional slowdown applied to every kernel
	// while two or more client contexts are resident (memory allocated or
	// kernels in flight) under PolicyMPS — the cost of the MPS server
	// multiplexing contexts. It is the mechanism behind FreeRide's
	// residual ~1% training overhead (paper Table 2): merely keeping a
	// side-task context resident is not free. Default 0 (off); the
	// experiment harness uses DefaultResidencyTax.
	ResidencyTax float64
	// NoTraces disables occupancy/memory series recording. Measurement
	// runs that never read the traces (everything except profiling and the
	// figure harnesses) set it: the series otherwise accumulate a point
	// per rebalance for the whole run and dominate allocation volume.
	NoTraces bool
	// FullRebalance forces the original full-recompute scheduler pass
	// (rebalanceFull) on every kernel event instead of the
	// incremental pass that reuses the device's running-set, residency and
	// share caches, and turns off the host leads and the completion
	// shortcuts. The two are float-exact equivalents; the full pass never
	// consults the share cache either, so it is the reference this
	// package's differential test (oracle_test.go) compares both against.
	// No session sets it.
	FullRebalance bool
}

// DefaultResidencyTax is the calibrated MPS context-multiplexing overhead
// used by the experiment harness.
const DefaultResidencyTax = 0.010

// Device is one simulated GPU.
type Device struct {
	eng *simtime.Virtual
	cfg DeviceConfig

	clients map[string]*Client
	// order lists clients in creation order: the full-recompute oracle
	// walks it instead of iterating the map (faster, and deterministic).
	order    []*Client
	memUsed  int64
	occ      trace.Series // total SM allocation over time
	mem      trace.Series // total memory bytes over time
	kernels  uint64       // completed kernel count
	workDone float64      // completed SM-seconds (at reference speed)

	// running caches the in-flight kernel set (each client's current, in
	// client creation order — the same order the full recompute derives by
	// walking d.order). Kernel launch/completion/abort updates it in place,
	// so the incremental rebalance never walks the client list.
	running []*kernel
	// resident caches how many clients hold GPU state (memory allocated or
	// a kernel in flight) — the ResidencyTax predicate — maintained on
	// every transition instead of recounted per rebalance.
	resident int

	// Water-fill share cache: converged post-tax allocation vectors of
	// recent incremental rebalances of two or more kernels (a kernel alone
	// gets its share in closed form, loneShare, and never reaches the
	// cache), fingerprinted by the running set's
	// shape — per slot the client identity and the weight/demand bits that
	// (with the immutable policy) fully determine the assignAllocations
	// output — plus the residency-tax predicate. A steady-state
	// co-location rebalance, where a completed kernel is replaced by an
	// identically shaped successor, becomes a fingerprint compare and a
	// copy instead of an iterative water-fill. The cache is
	// two-way (shares[mru] is the most recently used entry) because the
	// steady state alternates between two shapes: the set with a completed
	// kernel removed, and the set with its successor launched (a removal
	// that leaves one kernel takes the closed form instead). Any
	// membership, weight, demand or residency transition changes the
	// fingerprint, so invalidation is implicit in the compare; the cached
	// floats are the exact bits the recompute would produce. A lead
	// hypothesis reads the cache without promoting or counting
	// (shareCachePeek). shareHits/shareMisses let tests assert the fast path
	// actually engages.
	shares      [2]shareEntry
	mru         int
	shareHits   uint64
	shareMisses uint64

	// unmatured and relaunches count the completions that skipped the round
	// trip (completeKernel): leads retired without maturing, alone or beside
	// running kernels, and step parts relaunched in place.
	unmatured  uint64
	relaunches uint64

	// heldArm is the kernel whose completion arm waits, due at heldAt, for
	// the end of the completion running, to be folded into it (foldNext);
	// holding (beside leadCapable) names the arm that may be held now.
	// folds counts the folded completions.
	heldArm *kernel
	heldAt  time.Duration
	folds   uint64

	// taxScale is the residency tax's factor, 1/(1+ResidencyTax), computed
	// once: fill and loneShare multiply by it (rebalanceFull, the
	// reference, divides afresh; the bits are the same).
	taxScale float64

	// leadCapable gates the host leads and the in-place relaunch: the
	// full-recompute oracle does neither. No engine time passes between a
	// completion and its continuation's relaunch — a callback's Now is its
	// deadline, on a paced engine too — which is what makes the relaunch
	// inside the completion exact.
	leadCapable bool
	holding     holdMode

	// leads are pending host-lead kernels (ExecLeadThen), in wake order:
	// created but not yet launched, they reach their stream lazily at the
	// first device transition after the dispatch order passes their wake
	// (matureLeads), or retire unmatured (completeKernel). The list starts in
	// leadSlot, inside the device: a side task's device holds one lead at a
	// time, and the struct's size class has room for one pointer (a second
	// would cost the next class). Held leads (HoldLead) wait in held instead.
	leads    []*kernel
	leadSlot [1]*kernel
	held     []*kernel

	// scratch buffers reused across rebalances to keep the hot path
	// allocation-free.
	scratchRun   []*kernel
	scratchSlots []allocSlot
	// scratchAllocs holds a lead hypothesis dry run's allocation vector
	// (dryRun).
	scratchAllocs []float64
	// kernelPool recycles kernel structs (and their completion timers and
	// closures) across launches; a device retires millions of kernels per
	// simulated run.
	kernelPool []*kernel

	// Armed kernel fault (simfault's fail-kernel): the next launch by a
	// client whose name starts with faultPrefix completes immediately with
	// faultErr instead of running. One-shot; nil when idle.
	faultErr    error
	faultPrefix string
	// faultsFired counts injected kernel failures delivered.
	faultsFired uint64
}

// NewDevice creates a device on the engine. Zero-valued config fields get
// defaults: 48 GiB memory, PolicyMPS.
func NewDevice(eng *simtime.Virtual, cfg DeviceConfig) *Device {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 48 << 30
	}
	if cfg.Policy == 0 {
		cfg.Policy = PolicyMPS
	}
	if cfg.Name == "" {
		cfg.Name = "gpu"
	}
	d := &Device{
		eng:     eng,
		cfg:     cfg,
		clients: make(map[string]*Client),
	}
	d.leads = d.leadSlot[:0]
	d.leadCapable = !cfg.FullRebalance
	d.taxScale = 1 / (1 + cfg.ResidencyTax)
	return d
}

// Name reports the device name.
func (d *Device) Name() string { return d.cfg.Name }

// MemBytes reports physical memory size.
func (d *Device) MemBytes() int64 { return d.cfg.MemBytes }

// MemUsed reports currently allocated memory across all clients.
func (d *Device) MemUsed() int64 {
	return d.memUsed
}

// MemFree reports unallocated device memory.
func (d *Device) MemFree() int64 { return d.MemBytes() - d.MemUsed() }

// Policy reports the sharing policy.
func (d *Device) Policy() Policy { return d.cfg.Policy }

// Occupancy returns the total-SM-allocation trace.
func (d *Device) Occupancy() *trace.Series { return &d.occ }

// MemTrace returns the total-memory trace.
func (d *Device) MemTrace() *trace.Series { return &d.mem }

// KernelsCompleted reports how many kernels have finished on this device.
func (d *Device) KernelsCompleted() uint64 {
	return d.kernels
}

// WorkDone reports completed work in reference-GPU SM-seconds.
func (d *Device) WorkDone() float64 {
	return d.workDone
}

// ClientConfig describes a client process's GPU context.
type ClientConfig struct {
	Name string
	// MemLimitBytes is the MPS-imposed memory cap; 0 means unlimited.
	MemLimitBytes int64
	// Weight is the client's default kernel scheduling weight under
	// PolicyMPS; kernels may override it. Zero means "use kernel demand".
	// NewClient refuses a weight that is not finite.
	Weight float64
}

// Client is one process's context on a device (one CUDA context / MPS
// client).
type Client struct {
	dev *Device
	cfg ClientConfig

	memUsed int64
	current *kernel
	queue   []*kernel
	memTr   trace.Series
	occTr   trace.Series
	// orderIdx is the client's index in dev.order, kept current across
	// Destroys; the running-set cache sorts by it. It shares a word with
	// the two flags: a client is allocated per side-task placement.
	orderIdx int32
	closed   bool
	// resident mirrors the ResidencyTax predicate (memUsed > 0 or a kernel
	// in flight) so transitions can maintain dev.resident in O(1).
	resident bool
	// slept is the free-list of ExecLeadThen's pending launches where the
	// device takes the two-event fallback (engine context only, like the
	// callers' processes).
	slept []*sleptLead
	// parts is the client's part source (SetPartSource), nil when none.
	parts PartSource
}

// NewClient registers a client context on the device.
func (d *Device) NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("client%d", len(d.clients))
	}
	if _, dup := d.clients[cfg.Name]; dup {
		return nil, fmt.Errorf("simgpu: duplicate client %q on %s", cfg.Name, d.cfg.Name)
	}
	if math.IsNaN(cfg.Weight) || math.IsInf(cfg.Weight, 0) {
		return nil, fmt.Errorf("simgpu: client %q weight %v is not finite", cfg.Name, cfg.Weight)
	}
	c := &Client{
		dev:      d,
		cfg:      cfg,
		orderIdx: int32(len(d.order)),
	}
	d.clients[cfg.Name] = c
	d.order = append(d.order, c)
	return c, nil
}

// --- incremental scheduler caches -----------------------------------------
//
// The running set and the residency count are maintained at every transition
// (launch, completion, Destroy, memory traffic) so the rebalance pass needs
// neither a client-list walk nor a residency recount. rebalanceFull
// ignores both caches and rederives everything — the differential oracle.

// residencyChanged re-evaluates c's residency after any change to its memory
// or kernel state and folds the delta into the device count.
func (d *Device) residencyChanged(c *Client) {
	// A host lead is not resident kernel state until it reaches the stream:
	// the equivalent unfused client would still be in its host phase with
	// nothing submitted.
	r := !c.closed && (c.memUsed > 0 || c.current != nil)
	if r != c.resident {
		c.resident = r
		if r {
			d.resident++
		} else {
			d.resident--
		}
	}
}

// runningInsert adds k (its client's new current) to the running set, keeping
// client creation order.
func (d *Device) runningInsert(k *kernel) {
	i := len(d.running)
	for i > 0 && d.running[i-1].client.orderIdx > k.client.orderIdx {
		i--
	}
	d.running = append(d.running, nil)
	copy(d.running[i+1:], d.running[i:])
	d.running[i] = k
	for j := i; j < len(d.running); j++ {
		d.running[j].runIdx = int32(j)
	}
}

// runningRemove drops k from the running set.
func (d *Device) runningRemove(k *kernel) {
	i := int(k.runIdx)
	copy(d.running[i:], d.running[i+1:])
	last := len(d.running) - 1
	d.running[last] = nil
	d.running = d.running[:last]
	for j := i; j < last; j++ {
		d.running[j].runIdx = int32(j)
	}
	k.runIdx = -1
}

// runningReplace swaps a completed kernel for its client's promoted successor
// in the same slot (same client, same position).
func (d *Device) runningReplace(old, next *kernel) {
	i := old.runIdx
	d.running[i] = next
	next.runIdx = i
	old.runIdx = -1
}

// shareKey is one slot of the share-cache fingerprint: the client identity
// plus the bits of the kernel weight and demand that, with the device's
// immutable policy, determine its allocation under either policy (the
// client's own weight override is a function of the client identity).
// Clients are never recycled, so pointer identity is exact.
type shareKey struct {
	c    *Client
	w, d uint64
}

// shareEntry is one cached (fingerprint, allocation vector) pair, for a set
// of two or more kernels.
type shareEntry struct {
	key    []shareKey
	allocs []float64
	taxed  bool
	valid  bool
}

// matches reports whether the entry's fingerprint equals the running set's.
func (e *shareEntry) matches(running []*kernel, taxed bool) bool {
	if !e.valid || e.taxed != taxed || len(e.key) != len(running) {
		return false
	}
	for i, k := range running {
		if e.key[i] != k.key {
			return false
		}
	}
	return true
}

// matchesWith reports whether the entry's fingerprint equals that of running
// with k inserted at idx, without building that set.
func (e *shareEntry) matchesWith(running []*kernel, k *kernel, idx int, taxed bool) bool {
	if !e.valid || e.taxed != taxed || len(e.key) != len(running)+1 || e.key[idx] != k.key {
		return false
	}
	for i, rk := range running[:idx] {
		if e.key[i] != rk.key {
			return false
		}
	}
	for i, rk := range running[idx:] {
		if e.key[idx+1+i] != rk.key {
			return false
		}
	}
	return true
}

// shareCacheHit looks the running set (two or more kernels) up in the two-way
// cache and, on a match, installs the cached post-tax allocation vector
// (promoting the entry to MRU).
func (d *Device) shareCacheHit(running []*kernel, taxed bool) bool {
	i := d.mru
	if !d.shares[i].matches(running, taxed) {
		i ^= 1
		if !d.shares[i].matches(running, taxed) {
			d.shareMisses++
			return false
		}
		d.mru = i
	}
	for j, k := range running {
		k.alloc = d.shares[i].allocs[j]
	}
	d.shareHits++
	return true
}

// shareCachePeek looks up the running set with k inserted at idx and returns
// the matching entry's allocation vector (nil: a miss). It is a pure read: no
// promotion and no hit or miss counted, so the cache evolves exactly as the
// rebalances alone drive it.
func (d *Device) shareCachePeek(k *kernel, idx int, taxed bool) []float64 {
	i := d.mru
	if !d.shares[i].matchesWith(d.running, k, idx, taxed) {
		i ^= 1
		if !d.shares[i].matchesWith(d.running, k, idx, taxed) {
			return nil
		}
	}
	return d.shares[i].allocs
}

// shareCacheStore records the just-computed allocation vector under the
// running set's fingerprint, evicting the LRU entry (whose slices are reused).
func (d *Device) shareCacheStore(running []*kernel, taxed bool) {
	d.mru ^= 1
	e := &d.shares[d.mru]
	key, allocs := e.key[:0], e.allocs[:0]
	for _, k := range running {
		key = append(key, k.key)
		allocs = append(allocs, k.alloc)
	}
	e.key, e.allocs = key, allocs
	e.taxed = taxed
	e.valid = true
}

// ShareCacheStats reports water-fill cache hits and misses among the
// rebalances of two or more kernels (for tests and measurement). A set of one
// kernel or none takes its share in closed form and counts as neither, so
// both stay zero on a device that never co-locates, and on a FullRebalance
// device, which recomputes every pass instead.
func (d *Device) ShareCacheStats() (hits, misses uint64) {
	return d.shareHits, d.shareMisses
}

// FusedFolds reports how many kernel completions were folded into the
// completion before them, one engine event fewer each (completeKernel): a
// host lead a completion's continuation launched, or a step part relaunched
// in place, alone on the device and due before every queued event.
func (d *Device) FusedFolds() uint64 { return d.folds }

// Shortcuts reports how many completions skipped the device round trip: host
// leads retired without maturing, alone or beside running kernels, and step
// parts relaunched in place (for tests and measurement).
func (d *Device) Shortcuts() (unmatured, inPlace uint64) {
	return d.unmatured, d.relaunches
}

// Name reports the client name.
func (c *Client) Name() string { return c.cfg.Name }

// Device returns the owning device.
func (c *Client) Device() *Device { return c.dev }

// MemUsed reports the client's current allocation.
func (c *Client) MemUsed() int64 {
	return c.memUsed
}

// MemTrace returns the client's memory trace.
func (c *Client) MemTrace() *trace.Series { return &c.memTr }

// OccTrace returns the client's SM-allocation trace.
func (c *Client) OccTrace() *trace.Series { return &c.occTr }

// AllocMem charges n bytes to the client, enforcing the MPS client limit
// and physical capacity. On error nothing is charged.
func (c *Client) AllocMem(n int64) error {
	if n < 0 {
		return fmt.Errorf("simgpu: negative allocation %d", n)
	}
	d := c.dev
	d.matureLeads(nil)
	if c.closed {
		return ErrClientClosed
	}
	if c.cfg.MemLimitBytes > 0 && c.memUsed+n > c.cfg.MemLimitBytes {
		return fmt.Errorf("%w: client %s used %d + %d > limit %d",
			ErrClientOOM, c.cfg.Name, c.memUsed, n, c.cfg.MemLimitBytes)
	}
	if d.memUsed+n > d.cfg.MemBytes {
		return fmt.Errorf("%w: %s used %d + %d > %d",
			ErrDeviceOOM, d.cfg.Name, d.memUsed, n, d.cfg.MemBytes)
	}
	c.memUsed += n
	d.memUsed += n
	d.residencyChanged(c)
	// Residency feeds the pending leads' tax hypotheses.
	d.refreshLeads()
	if !d.cfg.NoTraces {
		now := d.eng.Now()
		c.memTr.Add(now, float64(c.memUsed))
		d.mem.Add(now, float64(d.memUsed))
	}
	return nil
}

// FreeMem releases n bytes (clamped to the current allocation).
func (c *Client) FreeMem(n int64) {
	d := c.dev
	d.matureLeads(nil)
	if n > c.memUsed {
		n = c.memUsed
	}
	c.memUsed -= n
	d.memUsed -= n
	d.residencyChanged(c)
	d.refreshLeads()
	if !d.cfg.NoTraces {
		now := d.eng.Now()
		c.memTr.Add(now, float64(c.memUsed))
		d.mem.Add(now, float64(d.memUsed))
	}
}

// Destroy aborts the client's queued and running kernels, frees its memory
// and removes it from the device — the effect of killing the owning process
// (its CUDA context dies with it).
func (c *Client) Destroy() {
	d := c.dev
	if c.closed {
		return
	}
	d.matureLeads(nil)
	c.closed = true
	aborted := make([]*kernel, 0, len(c.queue)+1)
	if cur := c.current; cur != nil {
		cur.timer.Cancel()
		d.runningRemove(cur)
		aborted = append(aborted, cur)
		c.current = nil
	}
	aborted = append(aborted, c.queue...)
	c.queue = nil
	// A pending (or held) lead never reached the stream.
	for _, list := range []*[]*kernel{&d.leads, &d.held} {
		for i := 0; i < len(*list); {
			k := (*list)[i]
			if k.client != c {
				i++
				continue
			}
			k.timer.Cancel()
			k.wake.Cancel()
			d.unhold(k)
			*list = removeKernel(*list, k)
			aborted = append(aborted, k)
		}
	}
	d.memUsed -= c.memUsed
	c.memUsed = 0
	d.residencyChanged(c)
	if !d.cfg.NoTraces {
		// The client leaves d.order below, so no rebalance steps its SM
		// series again: close it here, as its memory.
		now := d.eng.Now()
		c.memTr.Add(now, 0)
		c.occTr.Add(now, 0)
		d.mem.Add(now, float64(d.memUsed))
	}
	delete(d.clients, c.cfg.Name)
	d.order = append(d.order[:c.orderIdx], d.order[c.orderIdx+1:]...)
	for i := int(c.orderIdx); i < len(d.order); i++ {
		d.order[i].orderIdx = int32(i)
	}
	d.rebalance()

	for _, k := range aborted {
		if k.waiter != nil {
			// Typically a no-op: the owning process is already dead by the
			// time its context is destroyed, and wakes to dead processes are
			// discarded.
			k.waiter.Wake(ErrKernelAborted)
		} else if k.onComplete != nil {
			k.onComplete(ErrKernelAborted)
		}
	}
}

// InjectKernelFault arms a one-shot kernel fault: the first kernel launched
// at or after this instant by a client whose name starts with prefix
// completes immediately with ErrInjectedFault instead of executing. Side-task
// containers name their clients "ctr/..." while pipeline training stages use
// "train-s...", so a "ctr/" prefix faults only harvested work — the fault
// plane never touches the main job. Re-arming before the previous fault fires
// just extends the prefix; arming is idempotent per pending fault.
func (d *Device) InjectKernelFault(prefix string) {
	// Leads whose host phase has elapsed launched before this instant.
	d.matureLeads(nil)
	d.faultErr = ErrInjectedFault
	d.faultPrefix = prefix
	// A still-pending host lead launches at its leadUntil: wake it there, not
	// at its completion (armLead), so it can take the fault on time.
	d.refreshLeads()
}

// faultArmed reports whether a launch by c would fail now.
func (d *Device) faultArmed(c *Client) bool {
	return d.faultErr != nil && strings.HasPrefix(c.cfg.Name, d.faultPrefix)
}

// takeFault consumes the armed kernel fault on behalf of a launch by c (nil:
// none armed for c).
func (d *Device) takeFault(c *Client) error {
	if !d.faultArmed(c) {
		return nil
	}
	err := d.faultErr
	d.faultErr = nil
	d.faultsFired++
	return err
}

// InjectedKernelFaults reports how many armed faults have been delivered.
func (d *Device) InjectedKernelFaults() uint64 {
	return d.faultsFired
}
