package simgpu

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

// sharedGrid is the instant grid of FuzzSharedStreamMatchesTwoEvent: starts,
// leads and durations are small multiples of it, so transfers end, kernels
// complete and launches land on shared instants all the time.
const sharedGrid = time.Microsecond

// sharedOp is one kernel of a scripted caller: on client 0 (the shared
// stream) or 1, after a host lead (0: a plain ExecThen).
type sharedOp struct {
	client int
	lead   time.Duration
	spec   KernelSpec
}

// sharedCaller is an inline caller issuing its ops one after another, each
// from the previous one's completion, the first after start.
type sharedCaller struct {
	start time.Duration
	ops   []sharedOp
}

// decodeShared maps fuzz bytes to 2–4 callers homed on the shared client and
// one on the second; missing bytes read as zero. Per caller: a start byte, an
// op-count byte, and two bytes per op — lead (low 2 bits), client choice
// (next 2 bits: 0–1 home, 2 the shared client, 3 the second) — and duration
// (low 2 bits) with demand 0.5 when bit 4 is set, else 1.
func decodeShared(data []byte) []sharedCaller {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 2 + int(next()%3)
	callers := make([]sharedCaller, n+1)
	for i := range callers {
		home := 0
		if i == n {
			home = 1
		}
		c := &callers[i]
		c.start = time.Duration(next()%4) * sharedGrid
		for k := 1 + int(next()%4); k > 0; k-- {
			b, d := next(), next()
			op := sharedOp{client: home, lead: time.Duration(b%4) * sharedGrid}
			switch (b >> 2) % 4 {
			case 2:
				op.client = 0
			case 3:
				op.client = 1
			}
			op.spec = KernelSpec{
				Name:     fmt.Sprintf("k%d.%d", i, len(c.ops)),
				Duration: time.Duration(1+d%4) * sharedGrid,
				Demand:   1,
			}
			if d&0x10 != 0 {
				op.spec.Demand = 0.5
			}
			c.ops = append(c.ops, op)
		}
	}
	return callers
}

// sharedKernel is one retired kernel: its name, start and end instants.
type sharedKernel struct {
	name       string
	start, end time.Duration
}

// runShared plays callers on one device — a lead-capable one, or with full a
// FullRebalance one, where every lead is a sleep before a plain launch — and
// returns the kernels in completion order with the engine events spent.
func runShared(t *testing.T, callers []sharedCaller, full bool) ([]sharedKernel, uint64) {
	t.Helper()
	eng := simtime.NewVirtual()
	procs := simproc.NewRuntime(eng)
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true, FullRebalance: full})
	clients := []*Client{mustClient(t, dev, ClientConfig{Name: "a"}), mustClient(t, dev, ClientConfig{Name: "b"})}
	var done []sharedKernel
	for i := range callers {
		c := &callers[i]
		specs := make([]KernelSpec, len(c.ops))
		for j := range c.ops {
			specs[j] = c.ops[j].spec
		}
		procs.SpawnInline(fmt.Sprintf("caller%d", i), func(p *simproc.Process) {
			j := 0
			var next func(any)
			var k func(any)
			next = func(any) {
				op := c.ops[j]
				clients[op.client].ExecLeadThen(p, &specs[j], op.lead, k)
			}
			k = func(res any) {
				// The kernel just retired is the top of the device's pool.
				kr := dev.kernelPool[len(dev.kernelPool)-1]
				done = append(done, sharedKernel{specs[j].Name, kr.started, eng.Now()})
				if res != nil {
					t.Errorf("%s: %v", specs[j].Name, res)
					p.Exit(nil)
					return
				}
				if j++; j == len(c.ops) {
					p.Exit(nil)
					return
				}
				next(nil)
			}
			p.SleepThen(c.start, next)
		})
	}
	eng.MustDrain(1 << 20)
	return done, eng.Dispatched()
}

// sharedTieSeeds are hand-built inputs for the three same-instant ties a
// shared stream resolves by the engine's order, each in both orders of the
// two events involved. Kernels ask for half the device, so nothing contends
// and every instant stays on the grid.
var sharedTieSeeds = [][]byte{
	// Two transfers end on the shared stream at one instant: callers 0 and 1
	// both lead 2 units from 0, with kernels of 1 and 3 units, then of 3
	// and 1.
	{0, 0, 0, 2, 0x10, 0, 0, 2, 0x12, 0, 0, 0, 0x10},
	{0, 0, 0, 2, 0x12, 0, 0, 2, 0x10, 0, 0, 0, 0x10},
	// A transfer ends just as the stream's kernel completes, whose caller
	// then launches with no lead: one caller runs a plain 2-unit kernel and
	// then a plain 1-unit one, another leads 2 units onto the stream; the
	// first is scheduled first, then second.
	{0, 0, 1, 0, 0x11, 0, 0x10, 0, 0, 2, 0x10, 3, 0, 0, 0x10},
	{0, 0, 0, 2, 0x10, 0, 1, 0, 0x11, 0, 0x10, 3, 0, 0, 0x10},
	// Kernels on both clients finish at one instant and their callers lead
	// 1 unit onto the shared stream: caller 0 and the second client's caller
	// run 2-unit kernels from 0, on their home clients, then swapped.
	{0, 0, 1, 0, 0x11, 1, 0x10, 3, 0, 0, 0x10, 0, 1, 0, 0x11, 9, 0x12},
	{0, 0, 1, 12, 0x11, 9, 0x10, 3, 0, 0, 0x10, 0, 1, 8, 0x11, 9, 0x12},
	// A lone lead: caller 0 leads 2 units onto the shared stream from 1
	// while both other callers' kernels end at 1, so its kernel runs alone
	// and retires without maturing. A retirement that forgets the kernel's
	// start reports it started at 0.
	{0, 1, 0, 2, 0x10},
}

// FuzzSharedStreamMatchesTwoEvent is the shared-stream differential: callers
// issuing ExecThen and ExecLeadThen onto one client at colliding instants,
// plus one homed on a second client, retire every kernel at the same start
// and end instant and in the same completion order on a lead-capable device
// as on a FullRebalance device, and never spend more engine events.
func FuzzSharedStreamMatchesTwoEvent(f *testing.F) {
	for _, seed := range sharedTieSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		callers := decodeShared(data)
		lead, leadEvents := runShared(t, callers, false)
		two, twoEvents := runShared(t, callers, true)
		if !slices.Equal(lead, two) {
			t.Fatalf("kernels diverge on %v\nlead      %v\ntwo-event %v", callers, lead, two)
		}
		if leadEvents > twoEvents {
			t.Fatalf("lead form spent %d engine events, two-event form %d", leadEvents, twoEvents)
		}
	})
}
