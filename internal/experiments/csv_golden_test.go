package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"freeride/internal/sidetask"
)

const (
	csvGoldenDir    = "testdata/csv"
	renderGoldenDir = "testdata/render"
)

// TestCSVGolden pins every registered experiment's CSV byte for byte, at the
// options CI's sweep smoke uses (`freeride-experiments -epochs 4 -seed 1`,
// plus -cross for the two sweeps it widens). The files are the contract with
// whoever plots from them: a header that is respelt, a column that moves or
// a value that is formatted differently fails here. Regenerate deliberately
// with -update-golden (shared with TestGoldenSessionDigests).
func TestCSVGolden(t *testing.T) {
	emitted := 0
	for _, e := range Registered() {
		opts := Options{Epochs: 4, Seed: 1, WorkScale: sidetask.WorkNone}
		opts.Cross = e.Name == "schedules" || e.Name == "serving"
		res, err := e.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		emitter, ok := res.(CSVWriter)
		if !ok {
			continue
		}
		emitted++
		var got bytes.Buffer
		if err := emitter.WriteCSV(&got); err != nil {
			t.Fatalf("%s: WriteCSV: %v", e.Name, err)
		}
		checkGolden(t, filepath.Join(csvGoldenDir, e.Name+".csv"), got.Bytes())
	}
	// An experiment that lost its emitter leaves its file behind.
	files, err := filepath.Glob(filepath.Join(csvGoldenDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != emitted {
		t.Errorf("%s holds %d files, %d experiments emit CSV", csvGoldenDir, len(files), emitted)
	}
}

// TestRenderGolden pins the renders of the two figures that draw timelines
// and declare no columns — Figure 1 (the offline profiling session's ops and
// SM-occupancy bubbles) and Figure 8 (the device and client series of the
// limit scenarios) — so a change to what either reads from a recorded session
// fails here, as a changed CSV fails TestCSVGolden.
func TestRenderGolden(t *testing.T) {
	opts := Options{Epochs: 4, Seed: 1, WorkScale: sidetask.WorkNone}
	for _, name := range []string{"fig1", "fig8"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		res, err := e.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkGolden(t, filepath.Join(renderGoldenDir, name+".txt"), []byte(res.Render()))
	}
}

// checkGolden compares got with the golden file at path, or rewrites the file
// under -update-golden.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("read golden %s (run with -update-golden to create it): %v", path, err)
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
