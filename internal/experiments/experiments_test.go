package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"freeride"
	"freeride/internal/sidetask"
)

// fastOpts keeps the suite quick: 8 epochs, no real side-task computation.
func fastOpts() Options {
	return Options{Epochs: 8, WorkScale: sidetask.WorkNone, Seed: 1}
}

func TestTable1ShapeHolds(t *testing.T) {
	res, err := RunTable1(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Paper: bubbles beat the dedicated lower-tier GPU (1.06–2.82×)
		// and the CPU by far (7–59.9×).
		if row.RatioII() < 1.0 {
			t.Errorf("%s: bubbles/Server-II ratio %.2f < 1 — harvesting loses to a 3080", row.Task, row.RatioII())
		}
		if row.RatioII() > 4.0 {
			t.Errorf("%s: bubbles/Server-II ratio %.2f implausibly high", row.Task, row.RatioII())
		}
		if row.RatioCPU() < 5 {
			t.Errorf("%s: bubbles/CPU ratio %.1f < 5", row.Task, row.RatioCPU())
		}
	}
	if out := res.Render(); !strings.Contains(out, "resnet18") {
		t.Error("render missing task rows")
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	res, err := RunTable2(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4*7 {
		t.Fatalf("rows = %d, want 28", len(res.Rows))
	}
	// Headline claims (paper §1): iterative FreeRide ≈1% overhead with
	// positive single/low-double-digit savings on every task.
	for _, row := range res.Rows {
		if row.Method != freeride.MethodIterative {
			continue
		}
		if row.I > 0.03 {
			t.Errorf("iterative %s: I = %.3f > 3%%", row.Task, row.I)
		}
		if row.S < 0.01 {
			t.Errorf("iterative %s: S = %.3f not positive", row.Task, row.S)
		}
	}
	meanI, meanS := res.Averages(freeride.MethodIterative)
	if meanI > 0.02 {
		t.Errorf("iterative mean I = %.3f, want ~0.011", meanI)
	}
	if meanS < 0.04 || meanS > 0.15 {
		t.Errorf("iterative mean S = %.3f, want ~0.078 band", meanS)
	}
	// Imperative: comparable savings, higher overhead.
	for _, task := range []string{"resnet18", "graphsgd", "image"} {
		iter, _ := res.Row(task, freeride.MethodIterative)
		imp, _ := res.Row(task, freeride.MethodImperative)
		if imp.I < iter.I {
			t.Errorf("%s: imperative I %.4f < iterative %.4f", task, imp.I, iter.I)
		}
	}
	// MPS: worst on Graph SGD (~200%+), mild on image (<15%); FreeRide
	// beats it everywhere.
	sgdMPS, _ := res.Row("graphsgd", freeride.MethodMPS)
	if sgdMPS.I < 1.5 {
		t.Errorf("MPS graphsgd I = %.2f, want > 150%%", sgdMPS.I)
	}
	imgMPS, _ := res.Row("image", freeride.MethodMPS)
	if imgMPS.I > 0.2 {
		t.Errorf("MPS image I = %.2f, want mild (<20%%)", imgMPS.I)
	}
	// Naive: tens of percent overhead, negative savings for resnet18.
	rnNaive, _ := res.Row("resnet18", freeride.MethodNaive)
	if rnNaive.I < 0.2 || rnNaive.I > 0.8 {
		t.Errorf("naive resnet18 I = %.2f, want ~0.5", rnNaive.I)
	}
	if rnNaive.S > 0 {
		t.Errorf("naive resnet18 S = %.2f, want negative", rnNaive.S)
	}
	// Mixed workload: low overhead, solid savings (paper: 1.1% / 10.1%).
	mixed, ok := res.Row("mixed", freeride.MethodIterative)
	if !ok {
		t.Fatal("mixed row missing")
	}
	if mixed.I > 0.03 || mixed.S < 0.03 {
		t.Errorf("mixed iterative I/S = %.3f/%.3f, want ~0.011/0.10", mixed.I, mixed.S)
	}
	if out := res.Render(); !strings.Contains(out, "mixed") {
		t.Error("render missing mixed row")
	}
}

func TestFigure1Structure(t *testing.T) {
	res, err := RunFigure1(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) != 4 {
		t.Fatalf("stages = %d, want 4", len(res.Ops))
	}
	// Memory decreases with stage (Fig 1b).
	for s := 1; s < 4; s++ {
		if res.MemUsed[s] >= res.MemUsed[s-1] {
			t.Errorf("stage %d memory %d not < stage %d", s, res.MemUsed[s], s-1)
		}
	}
	// Every stage shows bubbles within the epoch.
	for s, bs := range res.Bubbles {
		if bs.Total() <= 0 {
			t.Errorf("stage %d shows no bubbles", s)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "stage 3") || !strings.Contains(out, "Figure 1(b)") {
		t.Error("render incomplete")
	}
}

func TestFigure2ShapeHolds(t *testing.T) {
	res, err := RunFigure2(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("stats = %d, want 4", len(res.Stats))
	}
	var r12, r36, r60, r36mb8 float64
	var e12, e36, e60 float64
	for _, s := range res.Stats {
		switch {
		case s.Model == "nanogpt-1.2b":
			r12, e12 = s.BubbleRate, s.EpochTime.Seconds()
		case s.Model == "nanogpt-3.6b" && s.MicroBatch == 4:
			r36, e36 = s.BubbleRate, s.EpochTime.Seconds()
		case s.Model == "nanogpt-6b":
			r60, e60 = s.BubbleRate, s.EpochTime.Seconds()
		case s.MicroBatch == 8:
			r36mb8 = s.BubbleRate
		}
	}
	// Paper Fig 2b: ~42.4% → ~40.4%, epoch time decreasing; mb8 ≈ 26.2%.
	if !(r12 > r36 && r36 > r60) {
		t.Errorf("bubble rates not decreasing: %.3f %.3f %.3f", r12, r36, r60)
	}
	if math.Abs(r12-0.424) > 0.03 || math.Abs(r60-0.404) > 0.03 {
		t.Errorf("bubble rates %.3f/%.3f outside paper band", r12, r60)
	}
	if math.Abs(r36mb8-0.262) > 0.03 {
		t.Errorf("micro-batch-8 rate %.3f, want ~0.262", r36mb8)
	}
	if !(e12 > e36 && e36 > e60) {
		t.Errorf("epoch times not decreasing: %.2f %.2f %.2f", e12, e36, e60)
	}
	if len(res.Points) == 0 {
		t.Error("no scatter points")
	}
}

func TestFigure7BatchSize(t *testing.T) {
	res, err := RunFigure7BatchSize(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(res.Rows))
	}
	oomSeen := false
	for _, row := range res.Rows {
		if row.I > 0.03 {
			t.Errorf("%s %s: I = %.3f > 3%%", row.Task, row.X, row.I)
		}
		if row.OOM {
			oomSeen = true
		} else if row.S <= 0 {
			t.Errorf("%s %s: S = %.3f not positive", row.Task, row.X, row.S)
		}
	}
	// Paper Fig 7b: large VGG19 batches OOM on Server-II.
	if !oomSeen {
		t.Error("no OOM cells; expected for vgg19 b96/b128")
	}
}

func TestFigure7ModelSize(t *testing.T) {
	res, err := RunFigure7ModelSize(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.I > 0.05 {
			t.Errorf("%s %s: I = %.3f > 5%%", row.Task, row.X, row.I)
		}
	}
}

func TestFigure7MicroBatch(t *testing.T) {
	res, err := RunFigure7MicroBatch(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(res.Rows))
	}
	// Paper Fig 7f: savings shrink as micro-batch count rises (lower
	// bubble rate). Check resnet18's trend.
	var s4, s8 float64
	for _, row := range res.Rows {
		if row.Task == "resnet18" && row.X == "mb4" {
			s4 = row.S
		}
		if row.Task == "resnet18" && row.X == "mb8" {
			s8 = row.S
		}
	}
	if s8 >= s4 {
		t.Errorf("resnet18 savings did not shrink with micro-batches: mb4 %.3f vs mb8 %.3f", s4, s8)
	}
}

func TestFigure8LimitMechanisms(t *testing.T) {
	res, err := RunFigure8(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.GraceKills != 1 {
		t.Errorf("grace kills = %d, want 1", res.GraceKills)
	}
	// With the limit, occupancy must be zero well after the kill; without
	// it the hog keeps running.
	last := res.OccWithLimit.Points[len(res.OccWithLimit.Points)-1]
	if last.V != 0 {
		t.Errorf("with limit: occupancy %v at end, want 0", last.V)
	}
	lastNo := res.OccWithoutLimit.Points[len(res.OccWithoutLimit.Points)-1]
	if lastNo.V == 0 {
		t.Error("without limit: hog stopped by itself?")
	}
	// Memory: capped run dies (device back to 0); uncapped grows past 8GB.
	if !res.OOMKilled {
		t.Error("capped leaky task not OOM-killed")
	}
	// The cap is profiled memory plus the manager's slack: the leak grows
	// to exactly MemCap and is killed at its next allocation.
	var maxCap float64
	for _, p := range res.MemWithLimit.Points {
		if p.V > maxCap {
			maxCap = p.V
		}
	}
	if maxCap != float64(res.MemCap) {
		t.Errorf("capped leak peaked at %.3f GB, want exactly the %.0f GB cap", maxCap/float64(1<<30), float64(res.MemCap)/float64(1<<30))
	}
	var maxNoCap float64
	for _, p := range res.MemWithoutLimit.Points {
		if p.V > maxNoCap {
			maxNoCap = p.V
		}
	}
	if maxNoCap < float64(res.MemCap) {
		t.Errorf("uncapped leak reached only %.1f GB, want > 8", maxNoCap/float64(1<<30))
	}
	if out := res.Render(); !strings.Contains(out, "Figure 8(b)") {
		t.Error("render incomplete")
	}
}

func TestFigure9Breakdown(t *testing.T) {
	res, err := RunFigure9(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}
	for _, row := range res.Rows {
		sum := row.Running + row.Runtime + row.Insufficient + row.OOM
		if math.Abs(sum-1.0) > 0.02 {
			t.Errorf("%s: shares sum to %.3f", row.Task, sum)
		}
		switch row.Task {
		case "vgg19", "image":
			// Paper: these miss stages 0–1, so ~half the bubble time is
			// "No side task: OOM".
			if math.Abs(row.OOM-0.5) > 0.05 {
				t.Errorf("%s OOM share = %.2f, want ~0.5", row.Task, row.OOM)
			}
		case "resnet18", "pagerank", "mixed":
			if row.OOM != 0 {
				t.Errorf("%s OOM share = %.2f, want 0", row.Task, row.OOM)
			}
		}
		if row.Task == "pagerank" {
			// Paper: short steps → high runtime share.
			if row.Runtime < 0.15 {
				t.Errorf("pagerank runtime share = %.2f, want substantial", row.Runtime)
			}
		}
	}
	if out := res.Render(); !strings.Contains(out, "mixed") {
		t.Error("render incomplete")
	}
}

func TestCSVExports(t *testing.T) {
	opts := fastOpts()
	opts.Epochs = 4

	t1, err := RunTable1(opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := t1.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(b.String(), "\n"); lines != 7 { // header + 6 tasks
		t.Fatalf("table1 CSV lines = %d, want 7:\n%s", lines, b.String())
	}

	f9, err := RunFigure9(opts)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := f9.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "pagerank") {
		t.Fatal("figure9 CSV missing rows")
	}

	f2, err := RunFigure2(opts)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := f2.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "stat,nanogpt-3.6b,8") {
		t.Fatalf("figure2 CSV missing micro-batch-8 stat:\n%s", b.String())
	}

}

// TestColumnsDriveBothOutputs pins the one renderer on a toy list: both
// outputs carry a column under the same name, and each mark keeps a column
// out of one of them.
func TestColumnsDriveBothOutputs(t *testing.T) {
	type row struct {
		name string
		d    time.Duration
	}
	cols := []column[row]{
		{"name", func(r row) cell { return text(r.name) }, both},
		{"took_s", func(r row) cell { return dur(r.d) }, both},
		{"ns", func(r row) cell { return count(int64(r.d)) }, csvOnly},
		{"slow", func(r row) cell { return flagged(r.d > time.Second, "SLOW") }, textOnly},
	}
	rows := []row{{"a", 1500 * time.Millisecond}, {"bb", time.Millisecond}}
	var b strings.Builder
	if err := writeCSV(&b, cols, rows); err != nil {
		t.Fatal(err)
	}
	if want := "name,took_s,ns\na,1.5,1500000000\nbb,0.001,1000000\n"; b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
	want := "T\nname  took_s  slow\n----  ------  ----\na     1.50s   SLOW\nbb    0.00s       \n"
	if got := renderTable("T", cols, rows); got != want {
		t.Errorf("table =\n%q, want\n%q", got, want)
	}
}

func TestAblationInterleavedComposesWithFreeRide(t *testing.T) {
	res, err := RunAblationInterleaved(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	plain, inter := res.Rows[0], res.Rows[1]
	// Interleaving shrinks the harvest but both stay low-overhead and
	// positive-savings.
	if inter.Steps >= plain.Steps {
		t.Errorf("interleaved steps %d >= plain %d — bubbles did not shrink", inter.Steps, plain.Steps)
	}
	for _, row := range res.Rows {
		if row.I > 0.03 {
			t.Errorf("%s: I = %.3f > 3%%", row.Label, row.I)
		}
		if row.S <= 0 {
			t.Errorf("%s: S = %.3f not positive", row.Label, row.S)
		}
	}
}
