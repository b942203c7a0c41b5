package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"freeride/internal/model"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current implementation")

const goldenPath = "testdata/golden.json"

// goldenCase is one pinned training run: the digest covers every stage's
// OpLog and the epoch start/end times, i.e. everything the stage machines
// decide.
type goldenCase struct {
	name string
	cfg  Config
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	kinds := []ScheduleKind{Schedule1F1B, ScheduleGPipe, ScheduleInterleaved, ScheduleZeroBubble}
	shapes := [][2]int{{4, 4}, {8, 16}, {16, 32}}
	for _, kind := range kinds {
		for _, sm := range shapes {
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%v/S%d-M%d", kind, sm[0], sm[1]),
				cfg: Config{
					Model: model.NanoGPT3B, Stages: sm[0], MicroBatches: sm[1],
					Epochs: 3, Schedule: kind, RecordOps: true,
				},
			})
		}
	}
	return cases
}

// trainerDigest hashes the observable outcome of a completed run.
func trainerDigest(tr *Trainer) string {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for s := 0; s < tr.Config().Stages; s++ {
		log := tr.OpLog(s)
		put(int64(len(log)))
		for _, sp := range log {
			put(int64(sp.Op.Kind))
			put(int64(sp.Op.MB))
			put(int64(sp.Start))
			put(int64(sp.End))
		}
	}
	starts, ends := tr.CycleTimes()
	put(int64(len(starts)))
	for _, v := range starts {
		put(int64(v))
	}
	put(int64(len(ends)))
	for _, v := range ends {
		put(int64(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests pins the stage machines against digests captured on the
// commit before the dependency scoreboard replaced the per-edge latches: op
// order, op start/end instants and epoch boundaries must not move by a
// nanosecond. Regenerate deliberately with -update-golden.
func TestGoldenDigests(t *testing.T) {
	got := make(map[string]string)
	for _, c := range goldenCases() {
		r := newRig(t, c.cfg)
		r.run(t)
		got[c.name] = trainerDigest(r.trainer)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (run with -update-golden to create it): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d digests, the test runs %d cases", goldenPath, len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden digest", name)
		} else if g != w {
			t.Errorf("%s: digest %s, golden %s", name, g, w)
		}
	}
}
