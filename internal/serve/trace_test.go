package serve

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func traceCfg(kind TraceKind, seed int64) ArrivalConfig {
	return ArrivalConfig{Kind: kind, Rate: 2, Burstiness: 3, Requests: 64, Seed: seed}
}

func TestGenerateArrivalsDeterministic(t *testing.T) {
	for _, kind := range []TraceKind{TracePoisson, TraceDiurnal, TraceBursty} {
		a, err := GenerateArrivals(traceCfg(kind, 1))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		b, err := GenerateArrivals(traceCfg(kind, 1))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: same seed produced different traces", kind)
		}
	}
}

func TestGenerateArrivalsSortedAndSized(t *testing.T) {
	for _, kind := range []TraceKind{TracePoisson, TraceDiurnal, TraceBursty} {
		a, err := GenerateArrivals(traceCfg(kind, 7))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(a) != 64 {
			t.Fatalf("%v: got %d arrivals, want 64", kind, len(a))
		}
		for i, ts := range a {
			if ts < 0 {
				t.Fatalf("%v: negative arrival %v at %d", kind, ts, i)
			}
			if i > 0 && ts < a[i-1] {
				t.Fatalf("%v: arrivals out of order at %d: %v < %v", kind, i, ts, a[i-1])
			}
		}
	}
}

func TestGenerateArrivalsKindsDiverge(t *testing.T) {
	got := map[TraceKind][]time.Duration{}
	for _, kind := range []TraceKind{TracePoisson, TraceDiurnal, TraceBursty} {
		a, err := GenerateArrivals(traceCfg(kind, 1))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		got[kind] = a
	}
	if reflect.DeepEqual(got[TracePoisson], got[TraceBursty]) {
		t.Error("poisson and bursty traces identical under the same seed")
	}
	if reflect.DeepEqual(got[TracePoisson], got[TraceDiurnal]) {
		t.Error("poisson and diurnal traces identical under the same seed")
	}
}

func TestGenerateArrivalsSeedDivergence(t *testing.T) {
	a, err := GenerateArrivals(traceCfg(TracePoisson, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateArrivals(traceCfg(TracePoisson, 2))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateArrivalsValidation(t *testing.T) {
	bad := []ArrivalConfig{
		{Kind: TracePoisson, Rate: 0, Requests: 4},
		{Kind: TracePoisson, Rate: 2, Requests: 0},
		{Kind: TracePoisson, Rate: 2, Requests: 4, Burstiness: -1},
		{Kind: TraceKind(99), Rate: 2, Requests: 4},
		{Kind: TraceBursty, Rate: math.NaN(), Requests: 4, Burstiness: 1},
		{Kind: TraceBursty, Rate: math.Inf(1), Requests: 4, Burstiness: 1},
		{Kind: TraceBursty, Rate: 2, Requests: 4, Burstiness: math.NaN()},
		{Kind: TraceBursty, Rate: 2, Requests: 4, Burstiness: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := GenerateArrivals(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// The bursty trace's whole point: under the same mean rate it packs
// arrivals tighter in on-phases, so its maximum inter-arrival gap should
// exceed the Poisson trace's (off-phases stretch).
func TestBurstyTraceStretchesGaps(t *testing.T) {
	maxGap := func(a []time.Duration) time.Duration {
		var m time.Duration
		for i := 1; i < len(a); i++ {
			if g := a[i] - a[i-1]; g > m {
				m = g
			}
		}
		return m
	}
	p, err := GenerateArrivals(ArrivalConfig{Kind: TracePoisson, Rate: 2, Requests: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateArrivals(ArrivalConfig{Kind: TraceBursty, Rate: 2, Burstiness: 4, Requests: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if maxGap(b) <= maxGap(p) {
		t.Errorf("bursty max gap %v not above poisson %v", maxGap(b), maxGap(p))
	}
}
