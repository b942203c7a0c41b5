package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"freeride"
	"freeride/internal/bubble"
)

// TestZeroDriftOracleBitIdentical is the drift plane's do-no-harm oracle:
// with the whole dynamic-bubbles stack wired — drifter in the reporter,
// per-worker estimators baselined from the one-shot profile, detector fed
// on every AddBubble, re-plan machinery armed — and an EMPTY drift
// schedule, the entire Table 2 grid must be bit-identical to runs with no
// drift plane at all. The per-epoch windowing makes this exact: every
// window sum equals the baseline to the bit, so the CUSUM never
// accumulates and admission never consults the online estimate.
func TestZeroDriftOracleBitIdentical(t *testing.T) {
	plain := runOracleGrid(t, nil)
	armed := runOracleGrid(t, func(cfg *freeride.Config) {
		cfg.Drift = &bubble.DriftSchedule{}
		cfg.Replan = &bubble.DetectorConfig{}
	})
	for key, res := range armed {
		st := res.ManagerStats
		if st.DriftEvents != 0 || st.Replans != 0 || st.Demotions != 0 ||
			st.Revivals != 0 || st.StaleAdmissions != 0 {
			t.Errorf("cell %s: drift counters fired under zero drift: %+v", key, st)
		}
	}
	compareOracleGrids(t, armed, plain, "zero-drift vs no drift plane")
}

// driftOpts is the shrunk sweep configuration the drift tests share.
func driftOpts(seed int64) Options {
	o := oracleOpts()
	o.Seed = seed
	return o
}

// TestDriftSweepDeterministic pins the determinism contract: the same seed
// reproduces the full sweep — drift instants, detections, demotions,
// re-placements, final metrics — DeepEqual.
func TestDriftSweepDeterministic(t *testing.T) {
	a, err := RunDriftSweep(driftOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDriftSweep(driftOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed sweeps diverged:\n%+v\nvs\n%+v", a, b)
	}
	seq, par := driftOpts(7), driftOpts(7)
	seq.Parallelism, par.Parallelism = 1, 4
	sameSweepAtAnyWidth(t, seq, par, func(o Options) ([]DriftSweepRow, csvWriter, error) {
		r, err := RunDriftSweep(o)
		if err != nil {
			return nil, nil, err
		}
		return r.Rows, r, nil
	})
	if want := len(bubble.AllDriftKinds()) * len(driftSweepMagnitudes) * len(driftDetectors); len(a.Rows) != want {
		t.Fatalf("sweep produced %d rows, want %d", len(a.Rows), want)
	}
	for _, row := range a.Rows {
		if row.DriftEvents == 0 {
			t.Errorf("%v f=%.2g %s: drift injected but never detected",
				row.Kind, row.Magnitude, row.Detector)
		}
		if row.Replans == 0 || row.Demotions == 0 {
			t.Errorf("%v f=%.2g %s: no re-plan/demotion (replans=%d demotions=%d) — "+
				"the home stage must shrink below the task's fit",
				row.Kind, row.Magnitude, row.Detector, row.Replans, row.Demotions)
		}
		if row.Parked != 0 {
			t.Errorf("%v f=%.2g %s: task parked (%d) with a fitting escape stage available",
				row.Kind, row.Magnitude, row.Detector, row.Parked)
		}
	}
}

func TestDriftSweepShardsPartition(t *testing.T) {
	shardsPartition(t, driftOpts(1), len(driftDetectors), func(o Options) ([]DriftSweepRow, error) {
		r, err := RunDriftSweep(o)
		if err != nil {
			return nil, err
		}
		return r.Rows, nil
	})
}

// TestOnlineReprofilingBeatsProfileOnce is the acceptance pin: under every
// non-zero drift kind, online re-profiling must harvest strictly more GPU
// time than the paper's profile-once design (aggregated over the magnitude
// and detector axes — individual cells may tie when the drift leaves no
// profitable escape), and must strictly reduce the stale-admission overrun
// SLO (bubble time spent admitted into bubbles too small to step).
func TestOnlineReprofilingBeatsProfileOnce(t *testing.T) {
	res, err := RunDriftSweep(driftOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	type agg struct {
		online, once           time.Duration
		onlineStale, onceStale time.Duration
	}
	byKind := make(map[bubble.DriftKind]*agg)
	for _, row := range res.Rows {
		a := byKind[row.Kind]
		if a == nil {
			a = &agg{}
			byKind[row.Kind] = a
		}
		a.online += row.Harvested
		a.once += row.OnceHarvested
		a.onlineStale += row.StaleWait
		a.onceStale += row.OnceStaleWait
	}
	for _, kind := range bubble.AllDriftKinds() {
		a := byKind[kind]
		if a == nil {
			t.Errorf("%v: no rows", kind)
			continue
		}
		if a.online <= a.once {
			t.Errorf("%v: online harvested %v <= profile-once %v",
				kind, a.online, a.once)
		}
		if a.onlineStale >= a.onceStale {
			t.Errorf("%v: online stale-admission overrun %v >= profile-once %v",
				kind, a.onlineStale, a.onceStale)
		}
	}
}

// TestDriftSweepRendering sanity-checks the table and CSV emitters.
func TestDriftSweepRendering(t *testing.T) {
	r := &DriftSweepResult{Rows: []DriftSweepRow{{
		Kind: bubble.DriftFreeze, Magnitude: 1, Detector: "fast",
		TrainTime: 2 * time.Second, BaseTime: 2 * time.Second,
		Harvested: 3 * time.Second, OnceHarvested: time.Second,
		BaseHarvest: 2 * time.Second,
		DriftEvents: 4, Replans: 4, Demotions: 1,
	}}}
	if s := r.Render(); s == "" {
		t.Error("empty render")
	}
	var b bytes.Buffer
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() == "" {
		t.Error("empty csv")
	}
	if got := r.Rows[0].OnlineGain(); got != 2*time.Second {
		t.Errorf("OnlineGain() = %v, want 2s", got)
	}
}
