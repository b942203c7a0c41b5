package simgpu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"freeride/internal/simtime"
)

// Property: for arbitrary random workloads across clients and policies, the
// scheduler (a) completes every kernel, (b) conserves work, (c) never
// exceeds device capacity, and (d) preserves per-client FIFO order.
func TestSchedulerRandomWorkloadInvariants(t *testing.T) {
	f := func(seed int64, policyRaw, clientsRaw, kernelsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		policy := PolicyMPS
		if policyRaw%2 == 1 {
			policy = PolicyTimeSlice
		}
		eng := simtime.NewVirtual()
		d := NewDevice(eng, DeviceConfig{Policy: policy})

		nClients := int(clientsRaw%4) + 1
		nKernels := int(kernelsRaw%12) + 1
		var expected float64
		type record struct {
			client int
			seq    int
		}
		var completions []record
		for c := 0; c < nClients; c++ {
			weight := 0.0
			if rng.Intn(2) == 0 {
				weight = 0.5 + 2*rng.Float64()
			}
			cl, err := d.NewClient(ClientConfig{
				Name:   string(rune('a' + c)),
				Weight: weight,
			})
			if err != nil {
				return false
			}
			for k := 0; k < nKernels; k++ {
				c, k := c, k
				dur := time.Duration(1+rng.Intn(400)) * time.Millisecond
				demand := 0.1 + 0.9*rng.Float64()
				spec := &KernelSpec{
					Name:     "k",
					Duration: dur,
					Demand:   demand,
					Weight:   0.1 + 3*rng.Float64(),
				}
				expected += demand * dur.Seconds()
				// Stagger launches through time, keeping each client's
				// launch order aligned with its sequence numbers (FIFO is
				// defined over launch order).
				delay := time.Duration(k)*50*time.Millisecond +
					time.Duration(rng.Intn(40))*time.Millisecond
				eng.Schedule(delay, "launch", func() {
					_ = cl.Launch(spec, func(err error) {
						if err == nil {
							completions = append(completions, record{client: c, seq: k})
						}
					})
				})
			}
		}
		eng.Drain(5_000_000)

		// (a) all kernels completed
		if int(d.KernelsCompleted()) != nClients*nKernels {
			return false
		}
		// (b) work conservation
		if math.Abs(d.WorkDone()-expected) > 1e-6 {
			return false
		}
		// (c) capacity never exceeded (small epsilon for float noise)
		for _, p := range d.Occupancy().Points() {
			if p.V > 1+1e-6 {
				return false
			}
		}
		// (d) FIFO within each client
		lastSeq := make([]int, nClients)
		for i := range lastSeq {
			lastSeq[i] = -1
		}
		for _, r := range completions {
			if r.seq != lastSeq[r.client]+1 {
				return false
			}
			lastSeq[r.client] = r.seq
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: memory accounting never goes negative or above capacity under
// random alloc/free sequences, and client limits hold exactly.
func TestMemoryAccountingProperty(t *testing.T) {
	f := func(seed int64, limRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := simtime.NewVirtual()
		total := int64(1 << 30)
		limit := int64(limRaw%200+28) << 20
		d := NewDevice(eng, DeviceConfig{MemBytes: total})
		a, _ := d.NewClient(ClientConfig{Name: "a", MemLimitBytes: limit})
		b, _ := d.NewClient(ClientConfig{Name: "b"})
		for i := 0; i < 200; i++ {
			n := int64(rng.Intn(64<<20) + 1)
			cl := a
			if rng.Intn(2) == 0 {
				cl = b
			}
			if rng.Intn(3) == 0 {
				cl.FreeMem(n)
			} else {
				_ = cl.AllocMem(n)
			}
			if a.MemUsed() < 0 || b.MemUsed() < 0 {
				return false
			}
			if a.MemUsed() > limit {
				return false
			}
			if d.MemUsed() != a.MemUsed()+b.MemUsed() {
				return false
			}
			if d.MemUsed() > total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSliceClientWeighting(t *testing.T) {
	// A weight-2 training context gets 2/3 of the device under
	// time-slicing against a weight-1 side task.
	eng := simtime.NewVirtual()
	d := NewDevice(eng, DeviceConfig{Policy: PolicyTimeSlice})
	train, _ := d.NewClient(ClientConfig{Name: "train", Weight: 2})
	side, _ := d.NewClient(ClientConfig{Name: "side"})
	train.Launch(&KernelSpec{Name: "fp", Duration: time.Second, Demand: 1}, nil)
	side.Launch(&KernelSpec{Name: "s", Duration: time.Second, Demand: 1}, nil)
	eng.RunUntil(100 * time.Millisecond)
	got := train.OccTrace().At(50 * time.Millisecond)
	if math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("train share = %v, want 2/3", got)
	}
	eng.Drain(0)
}

func TestPolicyString(t *testing.T) {
	if PolicyMPS.String() != "mps" || PolicyTimeSlice.String() != "timeslice" {
		t.Fatal("Policy.String mismatch")
	}
}
