package simgpu

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"freeride/internal/simtime"
	"freeride/internal/trace"
)

// oracleRig is one arm of the rebalance differential: a device (incremental
// or forced-full) plus the completion log its workload accumulates.
type oracleRig struct {
	eng     *simtime.Virtual
	dev     *Device
	clients []*Client
	// completions logs (client, seq, engine time, error'd) per completion,
	// in delivery order.
	completions []completionRec
}

type completionRec struct {
	client  int
	seq     int
	at      time.Duration
	aborted bool
}

// buildOracleWorkload replays one seeded random workload — staggered kernel
// launches with mixed demands/weights, memory traffic that toggles the
// ResidencyTax ≥2-resident predicate, and a mid-run client Destroy — onto a
// rig. The schedule depends only on the seed, never on the rig, so both arms
// see identical stimulus.
func buildOracleWorkload(t *testing.T, seed int64, full bool) *oracleRig {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	policy := PolicyMPS
	if rng.Intn(2) == 1 {
		policy = PolicyTimeSlice
	}
	cfg := DeviceConfig{
		Name:          "oracle",
		Policy:        policy,
		ResidencyTax:  DefaultResidencyTax, // exercised whenever ≥2 clients are resident
		MemBytes:      1 << 30,
		FullRebalance: full,
	}
	r := &oracleRig{eng: simtime.NewVirtual()}
	r.dev = NewDevice(r.eng, cfg)

	nClients := rng.Intn(3) + 2
	nKernels := rng.Intn(10) + 2
	for c := 0; c < nClients; c++ {
		weight := 0.0
		if rng.Intn(2) == 0 {
			weight = 0.5 + 2*rng.Float64()
		}
		cl, err := r.dev.NewClient(ClientConfig{
			Name:   string(rune('a' + c)),
			Weight: weight,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.clients = append(r.clients, cl)
	}
	for c, cl := range r.clients {
		c, cl := c, cl
		// Some clients run a self-loop: the completion callback immediately
		// relaunches the next kernel, the shape that exercises the
		// completion→relaunch fusion window (folded on the incremental arm,
		// never opened on the full oracle) and the share cache's steady
		// hit/miss interleavings — sometimes with an identical spec
		// (fingerprint hit), sometimes alternating two specs (the two-way
		// cache), sometimes with a fresh random spec (guaranteed miss).
		if rng.Intn(2) == 0 {
			loops := nKernels
			specs := [2]KernelSpec{{
				Name:     "loop0",
				Duration: time.Duration(1+rng.Intn(40)) * time.Millisecond,
				Demand:   0.1 + 0.9*rng.Float64(),
				Weight:   0.1 + 3*rng.Float64(),
			}, {
				Name:     "loop1",
				Duration: time.Duration(1+rng.Intn(40)) * time.Millisecond,
				Demand:   0.1 + 0.9*rng.Float64(),
				Weight:   0.1 + 3*rng.Float64(),
			}}
			mutate := rng.Intn(3) == 0
			var relaunch func(err error)
			n := 0
			relaunch = func(err error) {
				r.completions = append(r.completions, completionRec{
					client: c, seq: n, at: r.eng.Now(), aborted: err != nil,
				})
				if err != nil || n >= loops {
					return
				}
				n++
				spec := specs[n%2]
				if mutate && n%3 == 0 {
					spec.Demand = 0.1 + 0.8*float64(n%7)/7
				}
				_ = cl.Launch(&spec, relaunch)
			}
			r.eng.Schedule(time.Duration(rng.Intn(30))*time.Millisecond, "loop-start", func() {
				_ = cl.Launch(&specs[0], relaunch)
			})
			continue
		}
		for k := 0; k < nKernels; k++ {
			k := k
			spec := &KernelSpec{
				Name:     "k",
				Duration: time.Duration(1+rng.Intn(300)) * time.Millisecond,
				Demand:   0.1 + 0.9*rng.Float64(),
				Weight:   0.1 + 3*rng.Float64(),
			}
			delay := time.Duration(k)*40*time.Millisecond +
				time.Duration(rng.Intn(30))*time.Millisecond
			r.eng.Schedule(delay, "launch", func() {
				_ = cl.Launch(spec, func(err error) {
					r.completions = append(r.completions, completionRec{
						client: c, seq: k, at: r.eng.Now(), aborted: err != nil,
					})
				})
			})
		}
		// Memory traffic toggles the residency predicate mid-run: an
		// allocation makes an otherwise idle client resident (arming the
		// ≥2-resident tax), the free disarms it again.
		if rng.Intn(2) == 0 {
			amt := int64(rng.Intn(1<<20) + 1)
			at := time.Duration(rng.Intn(400)) * time.Millisecond
			r.eng.Schedule(at, "mem", func() { _ = cl.AllocMem(amt) })
			r.eng.Schedule(at+time.Duration(rng.Intn(400))*time.Millisecond, "mem-free",
				func() { cl.FreeMem(amt) })
		}
	}
	// Destroy one client mid-run: its in-flight kernel aborts and the
	// survivors rebalance.
	victim := rng.Intn(nClients)
	r.eng.Schedule(time.Duration(100+rng.Intn(300))*time.Millisecond, "destroy",
		func() { r.clients[victim].Destroy() })

	r.eng.Drain(5_000_000)
	return r
}

// samePoints asserts two traces are float-exact (same instants, bitwise
// equal values).
func samePoints(t *testing.T, seed int64, label string, a, b *trace.Series) {
	t.Helper()
	pa, pb := a.Points(), b.Points()
	if len(pa) != len(pb) {
		t.Fatalf("seed %d: %s: %d vs %d trace points", seed, label, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].T != pb[i].T || math.Float64bits(pa[i].V) != math.Float64bits(pb[i].V) {
			t.Fatalf("seed %d: %s: point %d diverged: (%v, %x) vs (%v, %x)",
				seed, label, i, pa[i].T, math.Float64bits(pa[i].V), pb[i].T, math.Float64bits(pb[i].V))
		}
	}
}

// TestIncrementalVsFullRebalanceFloatExact is the scheduler differential
// oracle: the incremental rebalance (transition-maintained running set and
// residency count, in-place completion re-arms) must reproduce the original
// full recompute float-exactly — identical completion times and delivery
// order, bitwise-identical SM allocation traces (which expose every
// intermediate alloc value, including the ResidencyTax scaling), identical
// work accounting — across random workloads over both policies, memory
// traffic and mid-run Destroys.
func TestIncrementalVsFullRebalanceFloatExact(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		inc := buildOracleWorkload(t, seed, false)
		ful := buildOracleWorkload(t, seed, true)

		if len(inc.completions) != len(ful.completions) {
			t.Fatalf("seed %d: %d vs %d completions", seed, len(inc.completions), len(ful.completions))
		}
		for i := range inc.completions {
			if inc.completions[i] != ful.completions[i] {
				t.Fatalf("seed %d: completion %d diverged: %+v vs %+v",
					seed, i, inc.completions[i], ful.completions[i])
			}
		}
		if inc.eng.Now() != ful.eng.Now() {
			t.Fatalf("seed %d: final clocks diverged: %v vs %v", seed, inc.eng.Now(), ful.eng.Now())
		}
		if a, b := inc.dev.KernelsCompleted(), ful.dev.KernelsCompleted(); a != b {
			t.Fatalf("seed %d: kernels completed %d vs %d", seed, a, b)
		}
		if a, b := inc.dev.WorkDone(), ful.dev.WorkDone(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("seed %d: work done %v vs %v (not bitwise equal)", seed, a, b)
		}
		if a, b := inc.dev.MemUsed(), ful.dev.MemUsed(); a != b {
			t.Fatalf("seed %d: memory %d vs %d", seed, a, b)
		}
		// The occupancy traces record every kernel's allocation at every
		// rebalance instant: bitwise equality here means every intermediate
		// share — water-filling, time-slicing and tax-scaled — matched.
		samePoints(t, seed, "device occ", inc.dev.Occupancy(), ful.dev.Occupancy())
		samePoints(t, seed, "device mem", inc.dev.MemTrace(), ful.dev.MemTrace())
		for i := range inc.clients {
			samePoints(t, seed, "client occ", inc.clients[i].OccTrace(), ful.clients[i].OccTrace())
			samePoints(t, seed, "client mem", inc.clients[i].MemTrace(), ful.clients[i].MemTrace())
		}
	}
}

// TestLaunchCompleteAllocFree pins the incremental rebalance hot path with
// two concurrently running clients — the shape that exercises the running-
// set insert/remove/replace and residency bookkeeping on every event —
// at 0 allocs/op once pools are warm.
func TestLaunchCompleteAllocFree(t *testing.T) {
	eng := simtime.NewVirtual()
	dev := NewDevice(eng, DeviceConfig{Name: "gpu", NoTraces: true})
	specA := &KernelSpec{Name: "ka", Duration: 3 * time.Microsecond, Demand: 0.6, Weight: 0.6}
	specB := &KernelSpec{Name: "kb", Duration: 5 * time.Microsecond, Demand: 0.7, Weight: 0.9}
	a, err := dev.NewClient(ClientConfig{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := dev.NewClient(ClientConfig{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	var relaunchA, relaunchB func(error)
	relaunchA = func(error) { _ = a.Launch(specA, relaunchA) }
	relaunchB = func(error) { _ = b.Launch(specB, relaunchB) }
	relaunchA(nil)
	relaunchB(nil)
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("two-client launch/complete cycle allocates %.2f objects/op, want 0", allocs)
	}
}
