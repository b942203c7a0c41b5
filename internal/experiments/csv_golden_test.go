package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"freeride/internal/sidetask"
)

const csvGoldenDir = "testdata/csv"

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
		path := filepath.Join(csvGoldenDir, e.Name+".csv")
		if *updateGolden {
			if err := os.MkdirAll(csvGoldenDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: read golden CSV (run with -update-golden to create it): %v", e.Name, err)
			continue
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: CSV differs from %s\n--- got ---\n%s--- want ---\n%s", e.Name, path, got.Bytes(), want)
		}
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
