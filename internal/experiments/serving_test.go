package experiments

import (
	"reflect"
	"testing"
)

func TestServingSweepDeterministic(t *testing.T) {
	opts := Options{Epochs: 4, Seed: 1}
	a, err := RunServingSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunServingSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same-seed serving sweeps diverged")
	}
}

// Different seeds must generate different arrival traces, visible end to
// end as a different latency distribution somewhere in the grid.
func TestServingSweepSeedDivergence(t *testing.T) {
	a, err := RunServingSweep(Options{Epochs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunServingSweep(Options{Epochs: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	diverged := false
	for i := range a.Rows {
		if a.Rows[i].P99 != b.Rows[i].P99 || a.Rows[i].TotalTime != b.Rows[i].TotalTime {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("seeds 1 and 2 produced identical latency distributions across the whole grid")
	}
}

// TestServingGuardTradeoffMonotone pins the sweep's reason to exist: within
// every (trace, rate, SLO) group — same seeded arrivals across the guard
// axis — tightening the SLO admission guard must not increase harvest and
// must not increase violations; across the grid the max guard must cost
// strictly some harvest and actually defer fits.
func TestServingGuardTradeoffMonotone(t *testing.T) {
	r, err := RunServingSweep(Options{Epochs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	type axis struct {
		trace string
		rate  float64
		slo   int64
	}
	groups := map[axis][]ServingSweepRow{}
	for _, row := range r.Rows {
		k := axis{row.Trace.String(), row.Rate, int64(row.SLO)}
		groups[k] = append(groups[k], row)
	}
	var hLoose, hTight int64
	var deferred uint64
	for k, rows := range groups {
		for i := 1; i < len(rows); i++ {
			if rows[i].Guard < rows[i-1].Guard {
				t.Fatalf("%+v: guard axis not ascending", k)
			}
			if rows[i].Harvested > rows[i-1].Harvested {
				t.Errorf("%+v: harvest rose %v → %v as guard tightened %g → %g",
					k, rows[i-1].Harvested, rows[i].Harvested, rows[i-1].Guard, rows[i].Guard)
			}
			if rows[i].Violations > rows[i-1].Violations {
				t.Errorf("%+v: violations rose %d → %d as guard tightened %g → %g",
					k, rows[i-1].Violations, rows[i].Violations, rows[i-1].Guard, rows[i].Guard)
			}
		}
		hLoose += int64(rows[0].Harvested)
		hTight += int64(rows[len(rows)-1].Harvested)
		deferred += rows[len(rows)-1].SLODeferred
	}
	if hTight >= hLoose {
		t.Errorf("max guard harvested %d ≥ unguarded %d — the guard costs nothing", hTight, hLoose)
	}
	if deferred == 0 {
		t.Error("max guard deferred no fits anywhere — the guard is inert")
	}
}

// TestServingSweepShardsPartition asserts the shard filter partitions the
// grid exactly: the union of all shards equals the unsharded sweep.
func TestServingSweepShardsPartition(t *testing.T) {
	shardsPartition(t, Options{Epochs: 4, Seed: 1}, 1, func(o Options) ([]ServingSweepRow, error) {
		r, err := RunServingSweep(o)
		if err != nil {
			return nil, err
		}
		return r.Rows, nil
	})
}
