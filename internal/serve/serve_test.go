package serve

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"freeride/internal/model"
	"freeride/internal/simgpu"
	"freeride/internal/simproc"
	"freeride/internal/simtime"
)

type rig struct {
	eng     *simtime.Virtual
	devices []*simgpu.Device
	srv     *Server
}

func newRig(t testing.TB, cfg Config, memBytes int64) *rig {
	t.Helper()
	eng := simtime.NewVirtual()
	devices := make([]*simgpu.Device, cfg.Stages)
	for i := range devices {
		devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{
			Name: fmt.Sprintf("gpu%d", i), MemBytes: memBytes,
		})
	}
	srv, err := New(eng, simproc.NewRuntime(eng), devices, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &rig{eng: eng, devices: devices, srv: srv}
}

func (r *rig) run(t testing.TB) {
	t.Helper()
	if err := r.srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	r.eng.Drain(20_000_000)
	if !r.srv.Done().IsSet() {
		t.Fatal("serving did not complete")
	}
	if err := r.srv.Err(); err != nil {
		t.Fatalf("serving failed: %v", err)
	}
}

// burstCfg is 10 requests in batches of 4 (the last batch partial): the
// first batch's requests trickle in, the rest are already queued when their
// predecessor drains.
func burstCfg() Config {
	ms := time.Millisecond
	return Config{
		Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, BatchSize: 4,
		SLO: 2 * time.Second,
		Arrivals: []time.Duration{
			0, 10 * ms, 20 * ms, 300 * ms, // batch 0: gated on the 300ms arrival
			310 * ms, 320 * ms, 330 * ms, 340 * ms, // batch 1: queued behind batch 0
			350 * ms, 30 * time.Second, // batch 2: idle pipeline waits for the last arrival
		},
	}
}

// TestBatchSpanMatchesClosedForm pins the batch makespan against
// model.ServeBatchSpan. The two differ by a known term: the closed form
// overlaps a micro-batch's activation transfer with the previous
// micro-batch's compute, while a stage machine is sequential — it starts the
// transfer sleep only after retiring its previous op — so on S > 1 every
// micro-batch after the first pays CommLatency on the critical (last) stage.
func TestBatchSpanMatchesClosedForm(t *testing.T) {
	for _, sm := range [][2]int{{1, 1}, {1, 5}, {2, 3}, {4, 4}, {8, 16}} {
		cfg := burstCfg()
		cfg.Stages, cfg.MicroBatches = sm[0], sm[1]
		r := newRig(t, cfg, 1<<40)
		r.run(t)
		want := cfg.Model.ServeBatchSpan(sm[0], sm[1])
		if sm[0] > 1 {
			want += time.Duration(sm[1]-1) * cfg.Model.CommLatency
		}
		starts, ends := r.srv.BatchTimes()
		if len(starts) != 3 || len(ends) != 3 {
			t.Fatalf("S=%d M=%d: %d/%d batches recorded, want 3/3", sm[0], sm[1], len(starts), len(ends))
		}
		for b := range starts {
			if got := ends[b] - starts[b]; got != want {
				t.Errorf("S=%d M=%d batch %d: span %v, closed form (+ serialized transfers) %v", sm[0], sm[1], b, got, want)
			}
		}
	}
}

func TestEveryRequestScoredExactlyOnce(t *testing.T) {
	cfg := burstCfg()
	r := newRig(t, cfg, 1<<40)
	r.run(t)
	_, ends := r.srv.BatchTimes()
	var want []time.Duration
	var sum time.Duration
	violations := 0
	for i, at := range cfg.Arrivals {
		lat := ends[i/cfg.BatchSize] - at
		want = append(want, lat)
		sum += lat
		if lat > cfg.SLO {
			violations++
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := r.srv.Stats()
	if got.Requests != len(cfg.Arrivals) || got.Batches != 3 {
		t.Fatalf("scored %d requests in %d batches, want %d in 3", got.Requests, got.Batches, len(cfg.Arrivals))
	}
	if got.Mean != sum/time.Duration(len(want)) || got.Max != want[len(want)-1] ||
		got.P50 != quantile(want, 0.50) || got.P99 != quantile(want, 0.99) {
		t.Errorf("stats %+v do not match the per-request latencies %v", got, want)
	}
	if got.Violations != violations || got.SLO != cfg.SLO {
		t.Errorf("violations %d (SLO %v), want %d (SLO %v)", got.Violations, got.SLO, violations, cfg.SLO)
	}
	if got.TotalTime != r.srv.TotalTime() || got.TotalTime <= 0 {
		t.Errorf("total time %v vs %v", got.TotalTime, r.srv.TotalTime())
	}
}

func TestBatchHookOrder(t *testing.T) {
	r := newRig(t, burstCfg(), 1<<40)
	type ev struct {
		kind  string
		batch int
		at    time.Duration
	}
	var got []ev
	r.srv.OnCycleStart(func(b int, ts time.Duration) { got = append(got, ev{"start", b, ts}) })
	r.srv.OnCycleEnd(func(b int, ts time.Duration) { got = append(got, ev{"end", b, ts}) })
	r.srv.OnCycleStart(func(b int, ts time.Duration) { got = append(got, ev{"start2", b, ts}) })
	r.run(t)
	starts, ends := r.srv.BatchTimes()
	var want []ev
	for b := range starts {
		want = append(want, ev{"start", b, starts[b]}, ev{"start2", b, starts[b]}, ev{"end", b, ends[b]})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hook sequence\n got %v\nwant %v", got, want)
	}
}

func TestBatchGatedOnLastArrival(t *testing.T) {
	cfg := burstCfg()
	r := newRig(t, cfg, 1<<40)
	r.run(t)
	starts, ends := r.srv.BatchTimes()
	// Batch 0 waits for its fourth request; batch 1 is full before batch 0
	// drains, so it dispatches at the drain instant; the partial batch 2
	// waits on an idle pipeline for the trace's last arrival.
	want := []time.Duration{cfg.Arrivals[3], ends[0], cfg.Arrivals[9]}
	for b := range want {
		if starts[b] != want[b] {
			t.Errorf("batch %d dispatched at %v, want %v", b, starts[b], want[b])
		}
	}
}

func TestKernelErrorSurfaces(t *testing.T) {
	r := newRig(t, burstCfg(), 1<<40)
	r.devices[2].InjectKernelFault("serve-s")
	if err := r.srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	r.eng.Drain(20_000_000)
	err := r.srv.Err()
	if !errors.Is(err, simgpu.ErrInjectedFault) {
		t.Fatalf("Err() = %v, want it to wrap %v", err, simgpu.ErrInjectedFault)
	}
	if want := "serve: stage 2 mb 0: "; len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Errorf("Err() = %q, want prefix %q", err, want)
	}
	if r.srv.Done().IsSet() {
		t.Error("a failed run reported completion")
	}
}

// TestSteadyStateBatchAllocFree pins the serving cycle: with the engine and
// kernel pools warm, a whole batch — arrival gate, dispatch, every stage's
// forwards and dependency waits, drain, latency scoring — allocates nothing.
func TestSteadyStateBatchAllocFree(t *testing.T) {
	// One request per batch, spaced wider than a batch span: every batch
	// goes through the gate timer.
	arrivals := make([]time.Duration, 12)
	for i := range arrivals {
		arrivals[i] = time.Duration(i+1) * 3 * time.Second
	}
	cfg := Config{
		Model: model.NanoGPT3B, Stages: 8, MicroBatches: 8, BatchSize: 1,
		SLO: time.Second, Arrivals: arrivals,
	}
	eng := simtime.NewVirtual()
	// Grow the engine's calendar-wheel buckets and timer free-list up front
	// (their amortised growth is the engine's own, not the serving cycle's).
	for d := time.Duration(0); d < 300*time.Millisecond; d += 500 * time.Microsecond {
		for i := 0; i < 32; i++ {
			eng.ScheduleDetached(d, "warm", func() {})
		}
	}
	devices := make([]*simgpu.Device, cfg.Stages)
	for i := range devices {
		devices[i] = simgpu.NewDevice(eng, simgpu.DeviceConfig{Name: fmt.Sprintf("gpu%d", i), MemBytes: 1 << 40, NoTraces: true})
	}
	srv, err := New(eng, simproc.NewRuntime(eng), devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	srv.OnCycleStart(func(int, time.Duration) {})
	srv.OnCycleEnd(func(int, time.Duration) { batches++ })
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	runBatch := func() {
		for target := batches + 1; batches < target; {
			if !eng.Step() {
				t.Fatalf("engine ran dry after %d batches", batches)
			}
		}
	}
	runBatch()
	runBatch()
	if allocs := testing.AllocsPerRun(6, runBatch); allocs != 0 {
		t.Errorf("a steady-state batch allocates %.0f objects, want 0", allocs)
	}
	if err := srv.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedStartReleasesDevices: an OOM at stage s must not leave stages
// 0…s-1 holding their clients and memory.
func TestFailedStartReleasesDevices(t *testing.T) {
	cfg := burstCfg()
	r := newRig(t, cfg, 1<<40)
	need := cfg.Model.ServeStageMemUsed(cfg.MicroBatches)
	r.devices[3] = simgpu.NewDevice(r.eng, simgpu.DeviceConfig{Name: "small", MemBytes: need - 1})
	srv, err := New(r.eng, simproc.NewRuntime(r.eng), r.devices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err == nil {
		t.Fatal("Start succeeded on an undersized device")
	}
	for s, d := range r.devices {
		if d.MemUsed() != 0 {
			t.Errorf("stage %d: %d bytes still allocated after a failed Start", s, d.MemUsed())
		}
		if _, err := d.NewClient(simgpu.ClientConfig{Name: fmt.Sprintf("serve-s%d", s)}); err != nil {
			t.Errorf("stage %d: serving client still registered: %v", s, err)
		}
	}
}

// TestGoldenRun pins a 64-request bursty run against values captured on the
// commit before serve.Server moved onto the shared plan runner: every batch
// boundary and the latency distribution must not move by a nanosecond.
func TestGoldenRun(t *testing.T) {
	arrivals, err := GenerateArrivals(ArrivalConfig{Kind: TraceBursty, Rate: 2, Burstiness: 3, Requests: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, Config{
		Model: model.NanoGPT3B, Stages: 4, MicroBatches: 4, BatchSize: 4,
		SLO: 3 * time.Second, Arrivals: arrivals,
	}, 1<<40)
	r.run(t)
	starts, ends := r.srv.BatchTimes()
	var sum time.Duration
	for b := range starts {
		sum += starts[b]*3 + ends[b]*7
	}
	got := fmt.Sprintf("%d %+v", sum, r.srv.Stats())
	const want = "2889029703060 {Requests:64 Batches:16 P50:4.865633346s P99:11.574974528s Max:11.682054995s Mean:5.749547872s Violations:46 SLO:3s TotalTime:31.391821808s}"
	if got != want {
		t.Fatalf("run moved:\n got %s\nwant %s", got, want)
	}
}
