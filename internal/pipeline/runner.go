package pipeline

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"freeride/internal/simgpu"
	"freeride/internal/simproc"
)

// NumOpKinds sizes tables indexed by OpKind.
const NumOpKinds = int(OpBackwardWeight) + 1

// NewStageClients registers one GPU context per stage ("<prefix><stage>")
// and allocates mem(stage) on each. Weight 2: the main job drives multiple
// CUDA streams (compute + collectives), so it exerts about twice the
// thread-block pressure of a single-stream side task when sharing the device
// — what bounds the MPS baseline's damage for light side tasks (paper
// Table 2). On failure the contexts already created are destroyed, so an
// OOM at stage s leaves stages 0…s-1 as it found them.
func NewStageClients(devices []*simgpu.Device, prefix string, mem func(stage int) int64) ([]*simgpu.Client, error) {
	clients := make([]*simgpu.Client, 0, len(devices))
	for s, dev := range devices {
		c, err := dev.NewClient(simgpu.ClientConfig{Name: prefix + strconv.Itoa(s), Weight: 2})
		what := "client"
		if err == nil {
			clients = append(clients, c)
			what, err = "memory", c.AllocMem(mem(s))
		}
		if err != nil {
			for _, c := range clients {
				c.Destroy()
			}
			return nil, fmt.Errorf("stage %d %s: %w", s, what, err)
		}
	}
	return clients, nil
}

// RunnerConfig is what a driver — the Trainer (cycle = epoch) or
// serve.Server (cycle = request batch) — hands the plan runner beside the
// plan itself.
type RunnerConfig struct {
	// Cycles is how many times the chunks run through their op lists.
	Cycles int
	// Durations is each op's kernel duration by kind; Comm is the
	// activation/gradient transfer an op pays after a cross-chunk wait —
	// the kernel's host lead (see Runner).
	Durations [NumOpKinds]time.Duration
	Comm      time.Duration
	// ProcName prefixes the chunk process names ("pipe-v" → "pipe-v3").
	ProcName string
	// Label, when set, replaces the op kind in kernel names: "s<stage>-<Label>-<mb>".
	Label string
	// CycleDone runs once the last chunk retires a cycle: the driver closes
	// the cycle and calls Release for the next one, now or later.
	CycleDone func(cycle int)
	// Failed reports an op whose kernel completed with an error; the chunk's
	// process exits and the run stalls there.
	Failed func(stage int, op Op, err error)
	// Record, when non-nil, receives every retired op with its stage and
	// virtual chunk.
	Record func(stage, chunk int, span OpSpan)
}

// Runner replays one Plan cycle after cycle: one inline stage machine per
// virtual chunk runs nextOp → cross-chunk wait → transfer → kernel → retire.
// The plan is fixed for the run: NewRunner packs each op into a 16-byte step
// record — its kind, its label's end, the slot it waits on and the slot it
// stamps — so a chunk walks one table, four ops per cache line, instead of
// three parallel arrays (ops, dependency edges, kernel names) that the engine
// evicts between two of its ops. Chunk v runs on device v mod
// Stages; with VirtualPerStage > 1 the stage's chunks share its stream,
// their kernels FIFO-interleaving. The transfer is
// the kernel's host lead (simgpu.ExecLeadThen): one engine event per op on a
// lead-capable device, the lead reaching the shared stream where and when
// the sleep-then-launch it replaces would have.
//
// Cross-chunk ordering is a flat scoreboard instead of a synchronisation
// object per edge: slot (board, chunk, mb) holds cycle+1 of the op's last
// completion, and the one chunk that can depend on it parks its index there.
// A stamp needs no per-cycle reset: the cycle barrier orders every producer
// of cycle c before any consumer of cycle c+1, which compares against c+2.
//
// Engine-goroutine-only, and unguarded: the chunk machines are SpawnInline
// processes, so every access is an engine callback (serialized on any
// engine), plus Release from the driver's Start, which must itself run in
// an engine callback or, on a paced engine, inside simtime.Wall.Do.
type Runner struct {
	cfg     RunnerConfig
	nv      int
	stamp   int32   // released cycle + 1; what a completion writes
	arrived int     // chunks that retired the released cycle
	slots   []slot  // forward board, then backward board: nv × mbs each
	chunks  []chunk // by virtual index
	// waiting/spare are the chunks parked on the next Release, in arrival
	// order, and the drained list it swaps with.
	waiting, spare []*chunk
}

type slot struct {
	done   int32 // cycle+1 of the last completion
	parked int32 // index+1 of the chunk waiting on it, 0 if none
}

// NewRunner builds the runner for plan over one client per physical stage
// and spawns the chunk processes; each parks until the driver's first
// Release.
func NewRunner(procs *simproc.Runtime, clients []*simgpu.Client, plan *Plan, cfg RunnerConfig) *Runner {
	r := &Runner{cfg: cfg, nv: plan.NumVirtual()}
	r.slots = make([]slot, 2*r.nv*plan.MicroBatches)
	r.chunks = make([]chunk, r.nv)
	bindSteps(r.chunks, plan, cfg.Label)
	for v := range r.chunks {
		phys := v % plan.Stages
		c := &r.chunks[v]
		c.r, c.v, c.phys, c.client, c.ops = r, v, phys, clients[phys], plan.Chunks[v]
		c.spec = simgpu.KernelSpec{Demand: 1.0, Weight: 1.0}
		c.afterGoFn, c.afterDepFn = c.afterGo, c.afterDep
		c.execOpFn, c.afterExecFn = c.execOp, c.afterExec
		procs.SpawnInline(cfg.ProcName+strconv.Itoa(v), func(p *simproc.Process) {
			c.p = p
			c.waitCycle()
		})
	}
	return r
}

// Release opens the next cycle, waking the parked chunks in the order they
// arrived.
func (r *Runner) Release() {
	r.stamp++
	r.arrived = 0
	woken := r.waiting
	r.waiting = r.spare[:0]
	for i, c := range woken {
		woken[i] = nil
		c.p.Wake(nil)
	}
	r.spare = woken[:0]
}

// chunk is the continuation-passing machine of one virtual chunk. It runs
// entirely on the engine goroutine, with no process-goroutine handshake per
// dependency, transfer or kernel.
type chunk struct {
	r      *Runner
	p      *simproc.Process
	v      int
	phys   int
	client *simgpu.Client

	// steps is the chunk's op table, a window of the runner's one slab;
	// labels is the chunk's window of the runner's one label string, which
	// the records' ends cut into kernel names. ops, parallel to steps, is
	// read only by the cold Record and Failed paths.
	steps  []step
	labels string
	ops    []Op

	cycle   int
	i       int // index into steps
	opStart time.Duration

	// spec is the reusable kernel spec of the op loop; Name/Duration are
	// rewritten per op (the launch reads the spec synchronously).
	spec simgpu.KernelSpec

	// Pre-bound continuations: one closure each for the whole run.
	afterGoFn   func(any)
	afterDepFn  func(any)
	execOpFn    func(any)
	afterExecFn func(any)
}

// waitCycle parks until the chunk's next cycle is released.
func (c *chunk) waitCycle() {
	r := c.r
	if r.stamp > int32(c.cycle) {
		c.afterGo(nil)
		return
	}
	c.p.BeginWait(c.afterGoFn)
	r.waiting = append(r.waiting, c)
	c.p.EndWait("cycle")
}

func (c *chunk) afterGo(any) {
	c.i = 0
	c.nextOp()
}

// nextOp dispatches op i, or arrives at the cycle barrier when the list is
// done; the last arrival hands the cycle to the driver.
func (c *chunk) nextOp() {
	r := c.r
	if c.i >= len(c.steps) {
		cycle := c.cycle
		c.cycle++
		if r.arrived++; r.arrived == r.nv {
			r.cfg.CycleDone(cycle)
		}
		if c.cycle >= r.cfg.Cycles {
			c.p.Exit(nil)
			return
		}
		c.waitCycle()
		return
	}
	if w := c.steps[c.i].wait; w != 0 {
		s := &r.slots[w-1]
		if s.done == r.stamp {
			c.afterDep(nil)
			return
		}
		if s.parked != 0 {
			panic(fmt.Sprintf("pipeline: chunks %d and %d wait on one dependency", s.parked-1, c.v))
		}
		c.p.BeginWait(c.afterDepFn)
		s.parked = int32(c.v) + 1
		c.p.EndWait("dep")
		return
	}
	c.execOp(nil)
}

// afterDep runs once the op's cross-chunk dependency is satisfied: the
// activation/gradient transfer, then the kernel, launched with the transfer
// as its host lead — one engine event where the device can lead, whether the
// chunk owns its stage's stream or shares it with the stage's other chunks.
// A zero-length transfer sleeps instead: its sleep is an event at this
// instant that lets the instant's other callbacks run ahead of the launch.
func (c *chunk) afterDep(any) {
	cfg := &c.r.cfg
	if cfg.Comm <= 0 {
		c.p.SleepThen(cfg.Comm, c.execOpFn)
		return
	}
	if cfg.Record != nil {
		c.opStart = c.p.Now() + cfg.Comm
	}
	c.bindSpec()
	c.client.ExecLeadThen(c.p, &c.spec, cfg.Comm, c.afterExecFn)
}

// execOp issues the op's kernel (directly, or as the transfer sleep's
// continuation).
func (c *chunk) execOp(any) {
	if c.r.cfg.Record != nil {
		c.opStart = c.p.Now()
	}
	c.bindSpec()
	c.client.ExecThen(c.p, &c.spec, c.afterExecFn)
}

// bindSpec points the reusable kernel spec at op i.
func (c *chunk) bindSpec() {
	c.spec.Name = c.label(c.i)
	c.spec.Duration = c.r.cfg.Durations[c.steps[c.i].kind]
}

// label is op i's kernel name: its window of the chunk's labels, from the
// previous record's end to its own.
func (c *chunk) label(i int) string {
	lo := int32(0)
	if i > 0 {
		lo = c.steps[i-1].end
	}
	return c.labels[lo:c.steps[i].end]
}

// afterExec retires the op: record its span, stamp its slot and wake the
// dependent parked there, advance.
func (c *chunk) afterExec(res any) {
	r := c.r
	if res != nil {
		err, ok := res.(error)
		if !ok {
			err = fmt.Errorf("pipeline: unexpected completion payload %T", res)
		}
		r.cfg.Failed(c.phys, c.ops[c.i], err)
		c.p.Exit(err)
		return
	}
	if r.cfg.Record != nil {
		r.cfg.Record(c.phys, c.v, OpSpan{Op: c.ops[c.i], Start: c.opStart, End: c.p.Now()})
	}
	if p := c.steps[c.i].post; p != 0 {
		s := &r.slots[p-1]
		s.done = r.stamp
		if w := s.parked; w != 0 {
			s.parked = 0
			r.chunks[w-1].p.Wake(nil)
		}
	}
	c.i++
	c.nextOp()
}

// step is one op's record in its chunk's table: 16 bytes, four to a cache
// line, so the op loop's per-op state — the kernel's name and duration, the
// scoreboard slot it waits on, the slot it stamps — is one load.
type step struct {
	end  int32 // end of the op's label in the chunk's labels
	wait int32 // index+1 of the slot the op waits on; 0: no cross-chunk wait
	post int32 // index+1 of the slot the op stamps at retire; 0: none
	kind uint8 // the op kind, indexing RunnerConfig.Durations
}

// bindSteps builds every chunk's op table from plan in two allocations, the
// slab of all chunks' records and the string of all their kernel names
// (appendLabel's), and points each chunk's steps and labels at its window
// of them.
//
// The scoreboard has two boards of nv × mbs slots: forward completions on
// the first, activation-gradient completions (fused or split backward) on
// the second. A forward or activation-gradient op stamps its own slot; the
// weight-gradient W half and the optimizer stamp none.
func bindSteps(chunks []chunk, plan *Plan, label string) {
	nv, mbs := plan.NumVirtual(), plan.MicroBatches
	slotOf := func(on OpKind, chunk, mb int) int32 {
		i := chunk*mbs + mb
		if on != OpForward {
			i += nv * mbs
		}
		return int32(i) + 1
	}
	total := 0
	for _, ops := range plan.Chunks {
		total += len(ops)
	}
	slab := make([]step, total)
	var buf [64]byte
	size := 0
	for v, ops := range plan.Chunks {
		c := &chunks[v]
		c.steps, slab = slab[:len(ops):len(ops)], slab[len(ops):]
		end := 0
		for i, op := range ops {
			end += len(appendLabel(buf[:0], v%plan.Stages, op, label))
			st := step{end: int32(end), kind: uint8(op.Kind)}
			if d := plan.Deps[v][i]; d.Chunk >= 0 {
				st.wait = slotOf(d.On, d.Chunk, d.MB)
			}
			switch op.Kind {
			case OpForward, OpBackward, OpBackwardInput:
				st.post = slotOf(op.Kind, v, op.MB)
			}
			c.steps[i] = st
		}
		size += end
	}
	var all strings.Builder
	all.Grow(size)
	for v, ops := range plan.Chunks {
		for _, op := range ops {
			all.Write(appendLabel(buf[:0], v%plan.Stages, op, label))
		}
	}
	labels := all.String()
	for v := range plan.Chunks {
		c := &chunks[v]
		n := 0
		if len(c.steps) > 0 {
			n = int(c.steps[len(c.steps)-1].end)
		}
		c.labels, labels = labels[:n], labels[n:]
	}
}

// appendLabel appends op's kernel name to dst: "s<stage>-<kind>-<mb>", or
// "s<stage>-<label>-<mb>" under a fixed label.
func appendLabel(dst []byte, stage int, op Op, label string) []byte {
	if label == "" {
		label = op.Kind.String()
	}
	dst = append(dst, 's')
	dst = strconv.AppendInt(dst, int64(stage), 10)
	dst = append(dst, '-')
	dst = append(dst, label...)
	dst = append(dst, '-')
	return strconv.AppendInt(dst, int64(op.MB), 10)
}
