package bubble

import (
	"testing"
	"time"
)

// feedWindow delivers one complete window — `reports` reports of `per`
// each — and returns the detector's verdict on the closing report,
// asserting mid-window reports stay silent.
func feedWindow(t *testing.T, e *Estimator, per time.Duration, reports int) Drift {
	t.Helper()
	for i := 0; i < reports-1; i++ {
		if d := e.Observe(per); d != DriftNone {
			t.Fatalf("mid-window report %d fired %v", i, d)
		}
	}
	return e.Observe(per)
}

// TestEstimatorZeroDriftExactSilence pins the oracle contract: a window
// stream that exactly reproduces the baseline every epoch never moves the
// estimator — no detection, no drift flag, estimate bit-equal to the
// profile. The per-report durations vary; only the window sum matters.
func TestEstimatorZeroDriftExactSilence(t *testing.T) {
	e := NewEstimator(DetectorConfig{}, 4*time.Second, 4)
	reports := []time.Duration{
		700 * time.Millisecond, 1300 * time.Millisecond,
		900 * time.Millisecond, 1100 * time.Millisecond,
	}
	for w := 0; w < 50; w++ {
		for i, d := range reports {
			if got := e.Observe(d); got != DriftNone {
				t.Fatalf("window %d report %d fired %v under zero drift", w, i, got)
			}
		}
	}
	if e.Drifted() {
		t.Error("Drifted() true under zero drift")
	}
	if e.ShrinkSuspected() {
		t.Error("ShrinkSuspected() true under zero drift")
	}
	if got := e.Estimate(); got != 4*time.Second {
		t.Errorf("Estimate() = %v, want exactly 4s", got)
	}
	if got := e.MeanBubble(); got != time.Second {
		t.Errorf("MeanBubble() = %v, want exactly 1s", got)
	}
	if e.Windows() != 50 {
		t.Errorf("Windows() = %d, want 50", e.Windows())
	}
}

// TestEstimatorDetectsShrinkAndSnaps: a sustained 50% supply drop fires the
// default detector on the second drifted window, and the estimate snaps to
// the observed level at detection (no EWMA lag for the re-planner to fight).
func TestEstimatorDetectsShrinkAndSnaps(t *testing.T) {
	e := NewEstimator(DetectorConfig{}, 4*time.Second, 4)
	for w := 0; w < 2; w++ {
		feedWindow(t, e, time.Second, 4)
	}
	if got := feedWindow(t, e, 500*time.Millisecond, 4); got != DriftNone {
		t.Fatalf("first drifted window fired %v; default detector needs two", got)
	}
	if !e.ShrinkSuspected() {
		t.Error("accumulated negative CUSUM mass should flag ShrinkSuspected")
	}
	if got := feedWindow(t, e, 500*time.Millisecond, 4); got != DriftShrink {
		t.Fatalf("second drifted window fired %v, want shrink", got)
	}
	if !e.Drifted() || !e.ShrinkSuspected() {
		t.Error("post-detection flags: Drifted/ShrinkSuspected must hold")
	}
	if got := e.Estimate(); got != 2*time.Second {
		t.Errorf("Estimate() = %v, want exactly 2s (snap to observed)", got)
	}
	if got := e.MeanBubble(); got != 500*time.Millisecond {
		t.Errorf("MeanBubble() = %v, want exactly 500ms", got)
	}
	if got := e.Baseline(); got != 2*time.Second {
		t.Errorf("Baseline() = %v, want re-based to 2s", got)
	}
}

// TestEstimatorGrowDetection: a doubled supply fires grow on the first
// eligible window with the default thresholds.
func TestEstimatorGrowDetection(t *testing.T) {
	e := NewEstimator(DetectorConfig{}, 4*time.Second, 4)
	for w := 0; w < 2; w++ {
		feedWindow(t, e, time.Second, 4)
	}
	if got := feedWindow(t, e, 2*time.Second, 4); got != DriftGrow {
		t.Fatalf("doubled window fired %v, want grow", got)
	}
	if e.ShrinkSuspected() {
		t.Error("grow detection must not flag ShrinkSuspected")
	}
	if got := e.Estimate(); got != 8*time.Second {
		t.Errorf("Estimate() = %v, want exactly 8s", got)
	}
}

// TestEstimatorLatencyBounds pins the two sweep presets against a 50%
// shrink: the fast detector fires within its first drifted window, the slow
// one needs several consistent windows and fires strictly later.
func TestEstimatorLatencyBounds(t *testing.T) {
	latency := func(cfg DetectorConfig, warmup int) int {
		e := NewEstimator(cfg, 4*time.Second, 4)
		for w := 0; w < warmup; w++ {
			feedWindow(t, e, time.Second, 4)
		}
		for w := 1; w <= 10; w++ {
			if feedWindow(t, e, 500*time.Millisecond, 4) == DriftShrink {
				return w
			}
		}
		return -1
	}
	fast := latency(FastDetector(), 1)
	slow := latency(SlowDetector(), 3)
	if fast != 1 {
		t.Errorf("fast detector latency = %d windows, want 1", fast)
	}
	if slow < 3 || slow > 6 {
		t.Errorf("slow detector latency = %d windows, want within [3, 6]", slow)
	}
	if fast >= slow {
		t.Errorf("fast (%d) must fire strictly before slow (%d)", fast, slow)
	}
}

// TestEstimatorNoFlapOnOutlier: one jittery window 45% off baseline stays
// under the default threshold and the slack dead-band drains the residue —
// a single outlier epoch never triggers a re-plan.
func TestEstimatorNoFlapOnOutlier(t *testing.T) {
	e := NewEstimator(DetectorConfig{}, 4*time.Second, 4)
	for w := 0; w < 2; w++ {
		feedWindow(t, e, time.Second, 4)
	}
	if got := feedWindow(t, e, 1450*time.Millisecond, 4); got != DriftNone {
		t.Fatalf("single outlier window fired %v", got)
	}
	for w := 0; w < 12; w++ {
		if got := feedWindow(t, e, time.Second, 4); got != DriftNone {
			t.Fatalf("baseline window %d after outlier fired %v", w, got)
		}
	}
	if e.Drifted() {
		t.Error("one outlier must not mark the estimator drifted")
	}
}

// TestEstimatorHysteresisQuietAfterFire: after a detection the estimator is
// re-based and held quiet, so a steady post-drift stream produces exactly
// one firing — and a second genuine shift fires again.
func TestEstimatorHysteresisQuietAfterFire(t *testing.T) {
	e := NewEstimator(FastDetector(), 4*time.Second, 4)
	feedWindow(t, e, time.Second, 4)
	fires := 0
	for w := 0; w < 8; w++ {
		if feedWindow(t, e, 500*time.Millisecond, 4) != DriftNone {
			fires++
		}
	}
	if fires != 1 {
		t.Errorf("steady post-drift stream fired %d times, want exactly 1", fires)
	}
	for w := 0; w < 8; w++ {
		if feedWindow(t, e, 250*time.Millisecond, 4) != DriftNone {
			fires++
		}
	}
	if fires != 2 {
		t.Errorf("second level shift: %d total fires, want 2", fires)
	}
}

// TestDriftKindDetectionLatency closes the loop between the drift generator
// and the detector: for every kind, scaling the home stage's window sums by
// the Drifter's own ScaleAt must fire the fast detector within one epoch of
// the event activating, in the shrink direction (each sweep kind shrinks
// the home stage).
func TestDriftKindDetectionLatency(t *testing.T) {
	const home = 1
	epoch := 4 * time.Second
	for _, kind := range AllDriftKinds() {
		ev := DriftEvent{At: 10 * epoch, Kind: kind, Stage: home, Magnitude: 1}
		if kind == DriftFreeze {
			ev.Stage = 2 // freezing another stage shrinks the home stage
		}
		if kind == DriftStraggler {
			ev.Window = 20 * epoch
		}
		d := NewDrifter(&DriftSchedule{Events: []DriftEvent{ev}}, 4)
		e := NewEstimator(FastDetector(), epoch, 4)
		fired, lat := Drift(DriftNone), 0
		for w := 0; w < 15 && fired == DriftNone; w++ {
			now := time.Duration(w) * epoch
			scale, _ := d.ScaleAt(home, now)
			if scale != 1 {
				lat++
			}
			fired = feedWindow(t, e, time.Duration(float64(epoch/4)*scale), 4)
		}
		if fired != DriftShrink {
			t.Errorf("%v: detector fired %v, want shrink", kind, fired)
		}
		if lat != 1 {
			t.Errorf("%v: detection latency %d drifted epochs, want 1", kind, lat)
		}
	}
}
