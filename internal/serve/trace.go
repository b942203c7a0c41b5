// Package serve models the open-loop inference-serving workload: a seeded
// request-arrival process drives the pipeline in per-request-batch
// fill/execute/drain cycles, and per-request latency (batch completion
// minus request arrival) is scored against a p99 SLO.
//
// The arrival traces stand in for the aggregate of many independent users —
// the regime where arrivals are outside the system's control (open loop),
// so queueing delay and batching delay compound under load instead of
// self-limiting as a closed loop would.
package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// TraceKind selects the arrival process.
type TraceKind int

const (
	// TracePoisson is the memoryless baseline: exponential inter-arrivals
	// at the configured mean rate.
	TracePoisson TraceKind = iota + 1
	// TraceDiurnal modulates the Poisson rate sinusoidally (a compressed
	// day/night cycle): lambda(t) = rate * (1 + m*sin(2*pi*t/period)) with
	// modulation depth m = Burstiness/(1+Burstiness).
	TraceDiurnal
	// TraceBursty is a two-state Markov-modulated Poisson process: an "on"
	// phase at rate*(1+Burstiness) alternating with an "off" phase at
	// rate/(1+Burstiness), exponential sojourns, preserving the mean rate's
	// order of magnitude while clustering arrivals.
	TraceBursty
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TracePoisson:
		return "poisson"
	case TraceDiurnal:
		return "diurnal"
	case TraceBursty:
		return "bursty"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// diurnalPeriod is the compressed day/night cycle of TraceDiurnal. Short
// enough that even a small sweep cell sees both the peak and the trough.
const diurnalPeriod = 60 * time.Second

// ArrivalConfig parameterizes one generated trace.
type ArrivalConfig struct {
	Kind TraceKind
	// Rate is the mean arrival rate in requests/second.
	Rate float64
	// Burstiness shapes the non-Poisson kinds (see TraceKind docs);
	// ignored by TracePoisson.
	Burstiness float64
	// Requests is the trace length.
	Requests int
	// Seed drives the generator; equal configs yield identical traces.
	Seed int64
}

// GenerateArrivals produces the sorted request-arrival offsets of one
// trace. The generator is fully deterministic in the config.
func GenerateArrivals(cfg ArrivalConfig) ([]time.Duration, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("serve: trace needs a positive request count, got %d", cfg.Requests)
	}
	if !(cfg.Rate > 0) || math.IsInf(cfg.Rate, 1) {
		return nil, fmt.Errorf("serve: trace needs a positive finite rate, got %g", cfg.Rate)
	}
	if !(cfg.Burstiness >= 0) || math.IsInf(cfg.Burstiness, 1) {
		return nil, fmt.Errorf("serve: trace needs a finite non-negative burstiness, got %g", cfg.Burstiness)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]time.Duration, 0, cfg.Requests)
	var t float64 // seconds
	switch cfg.Kind {
	case TracePoisson, 0:
		for i := 0; i < cfg.Requests; i++ {
			t += rng.ExpFloat64() / cfg.Rate
			out = append(out, secs(t))
		}
	case TraceDiurnal:
		m := cfg.Burstiness / (1 + cfg.Burstiness)
		period := diurnalPeriod.Seconds()
		for i := 0; i < cfg.Requests; i++ {
			// Step by the local instantaneous rate; for rates that change
			// slowly relative to inter-arrival gaps this tracks the
			// inhomogeneous process closely and stays one-pass deterministic.
			lambda := cfg.Rate * (1 + m*math.Sin(2*math.Pi*t/period))
			if lambda < cfg.Rate/16 {
				lambda = cfg.Rate / 16
			}
			t += rng.ExpFloat64() / lambda
			out = append(out, secs(t))
		}
	case TraceBursty:
		on := true
		rateOn := cfg.Rate * (1 + cfg.Burstiness)
		rateOff := cfg.Rate / (1 + cfg.Burstiness)
		// Mean sojourn of ~10 requests per "on" phase at the on-rate; the
		// off phase matches in wall time so bursts and lulls alternate.
		sojournMean := 10 / rateOn
		phaseEnd := t + rng.ExpFloat64()*sojournMean
		for i := 0; i < cfg.Requests; i++ {
			rate := rateOn
			if !on {
				rate = rateOff
			}
			t += rng.ExpFloat64() / rate
			for t > phaseEnd {
				on = !on
				phaseEnd += rng.ExpFloat64() * sojournMean
			}
			out = append(out, secs(t))
		}
	default:
		return nil, fmt.Errorf("serve: unknown trace kind %v", cfg.Kind)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
