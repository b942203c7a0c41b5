package bubble

import (
	"math"
	"time"
)

// Online drift detection over the report stream: the manager profiles each
// stage once up front (the paper's design) and then watches the per-epoch
// bubble supply the reporter actually delivers. The estimator windows the
// stream per epoch — the one-shot profile says how many reports a stage
// emits per epoch, so a window closes exactly when the epoch's last report
// lands — and runs a CUSUM test with hysteresis over the relative
// deviation of each window sum from the profiled baseline, plus an EWMA of
// the window sums as the online supply estimate.
//
// The windowing is what makes the zero-drift oracle exact rather than
// approximate: with no drift the reporter emits the same templates every
// epoch, each window sum equals the baseline to the bit, the relative
// deviation is exactly 0.0, and the CUSUM never accumulates — an armed
// detector over a zero-drift run is pure bookkeeping.

// Drift labels a detector firing.
type Drift int

const (
	DriftNone Drift = iota
	// DriftGrow: the window sums ran persistently above baseline.
	DriftGrow
	// DriftShrink: the window sums ran persistently below baseline.
	DriftShrink
)

// String names the direction.
func (d Drift) String() string {
	switch d {
	case DriftGrow:
		return "grow"
	case DriftShrink:
		return "shrink"
	default:
		return "none"
	}
}

// DetectorConfig tunes the estimator. The zero value selects the defaults.
type DetectorConfig struct {
	// Alpha is the EWMA weight of each new window sum (default 0.3).
	Alpha float64
	// Slack is the CUSUM dead-band k: per-window relative deviations
	// smaller than this accumulate nothing (default 0.05).
	Slack float64
	// Threshold is the CUSUM firing level h on the accumulated relative
	// deviation (default 0.8 — e.g. two windows at 45% off baseline).
	Threshold float64
	// MinWindows is how many complete windows must be observed before the
	// detector may fire (default 2).
	MinWindows int
	// Hysteresis is how many complete windows after a firing the detector
	// stays quiet, so one detection doesn't flap into a train of
	// re-detections while the EWMA converges (default 2).
	Hysteresis int
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.Slack <= 0 {
		c.Slack = 0.05
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.8
	}
	if c.MinWindows <= 0 {
		c.MinWindows = 2
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 2
	}
	return c
}

// FastDetector reacts within a window or two — low threshold, no warmup.
func FastDetector() DetectorConfig {
	return DetectorConfig{Alpha: 0.4, Slack: 0.05, Threshold: 0.3, MinWindows: 1, Hysteresis: 1}
}

// SlowDetector needs several consistent windows before firing — the
// detector-latency axis of the drift sweep.
func SlowDetector() DetectorConfig {
	return DetectorConfig{Alpha: 0.2, Slack: 0.1, Threshold: 1.6, MinWindows: 3, Hysteresis: 2}
}

// Estimator maintains one worker's online bubble-supply estimate.
type Estimator struct {
	cfg DetectorConfig
	// reports is the window size: bubble reports per epoch from the
	// one-shot profile.
	reports int
	// baseline is the per-epoch bubble supply currently planned against
	// (seeded from the one-shot profile, re-based on detection).
	baseline float64
	// ewma tracks the window sums.
	ewma float64
	// CUSUM accumulators over relative deviation from baseline.
	cpos, cneg float64

	winSum   float64
	winCount int
	windows  int
	cool     int
	drifted  bool
	last     Drift
}

// NewEstimator seeds an estimator from the one-shot profile: perEpoch is
// the profiled per-epoch bubble supply (post safety margin) and reports
// the number of bubble reports per epoch.
func NewEstimator(cfg DetectorConfig, perEpoch time.Duration, reports int) *Estimator {
	if reports < 1 {
		reports = 1
	}
	return &Estimator{
		cfg:      cfg.withDefaults(),
		reports:  reports,
		baseline: float64(perEpoch),
		ewma:     float64(perEpoch),
	}
}

// Observe feeds one bubble report's duration. It returns DriftNone until a
// window (one epoch of reports) completes AND the CUSUM fires; a non-none
// return is a detection: the estimator has re-based itself onto the
// observed level and the caller should re-plan.
func (e *Estimator) Observe(d time.Duration) Drift {
	e.winSum += float64(d)
	e.winCount++
	if e.winCount < e.reports {
		return DriftNone
	}
	sum := e.winSum
	e.winSum, e.winCount = 0, 0
	e.windows++

	// EWMA update. Under zero drift sum == ewma exactly, so the update is
	// the identity and no float error creeps in.
	if sum != e.ewma {
		e.ewma += e.cfg.Alpha * (sum - e.ewma)
	}

	if e.cool > 0 {
		e.cool--
		return DriftNone
	}

	// CUSUM over the relative deviation from the planned baseline.
	x := 0.0
	if e.baseline > 0 {
		x = sum/e.baseline - 1
	}
	e.cpos = math.Max(0, e.cpos+x-e.cfg.Slack)
	e.cneg = math.Max(0, e.cneg-x-e.cfg.Slack)
	if e.windows < e.cfg.MinWindows {
		return DriftNone
	}

	var dir Drift
	switch {
	case e.cpos > e.cfg.Threshold:
		dir = DriftGrow
	case e.cneg > e.cfg.Threshold:
		dir = DriftShrink
	default:
		return DriftNone
	}

	// Detection: the one-shot profile is stale. Snap the estimate and the
	// baseline to the observed level (history before a level shift carries
	// no information about the new level) and hold the detector quiet for
	// the hysteresis window.
	e.drifted = true
	e.last = dir
	e.baseline = sum
	e.ewma = sum
	e.cpos, e.cneg = 0, 0
	e.cool = e.cfg.Hysteresis
	return dir
}

// Estimate is the current per-epoch bubble-supply estimate.
func (e *Estimator) Estimate() time.Duration { return time.Duration(e.ewma) }

// MeanBubble is the estimated mean duration of a single bubble — the
// quantity Algorithm-1's pause-time fit compares against a task's step.
func (e *Estimator) MeanBubble() time.Duration {
	return time.Duration(e.ewma / float64(e.reports))
}

// Baseline is the per-epoch supply currently planned against.
func (e *Estimator) Baseline() time.Duration { return time.Duration(e.baseline) }

// Windows reports how many complete windows have been observed.
func (e *Estimator) Windows() int { return e.windows }

// Drifted reports whether the estimator has ever detected drift: until then
// the one-shot profile is authoritative and online admission must not
// second-guess it.
func (e *Estimator) Drifted() bool { return e.drifted }

// ShrinkSuspected reports whether the evidence points at a contracting
// bubble supply: either the last detection was a shrink, or negative CUSUM
// mass has accumulated (shrink suspected but not yet over threshold). The
// manager uses this to classify a pause-overrun grace kill as a
// recoverable stale admission rather than a task bug. Under zero drift
// both terms are exactly zero, so classification never changes.
func (e *Estimator) ShrinkSuspected() bool {
	return e.last == DriftShrink || e.cneg > 0
}
