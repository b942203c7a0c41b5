// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment harness end-to-end and
// reports the headline quantities as custom metrics, so `go test -bench=.`
// doubles as the reproduction run. Absolute wall-clock ns/op measures the
// simulator, not the paper's testbed; the custom metrics are the reproduced figures.
package freeride_test

import (
	"testing"

	"freeride"
	"freeride/internal/experiments"
	"freeride/internal/sidetask"
)

func benchOpts() experiments.Options {
	return experiments.Options{Epochs: 8, WorkScale: sidetask.WorkNone, Seed: 1}
}

// BenchmarkTable1 regenerates paper Table 1: side-task throughput on
// bubbles vs Server-II vs CPU.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var minRatio, maxRatio float64
		for j, row := range res.Rows {
			r := row.RatioII()
			if j == 0 || r < minRatio {
				minRatio = r
			}
			if r > maxRatio {
				maxRatio = r
			}
		}
		b.ReportMetric(minRatio, "min-x-vs-serverII")
		b.ReportMetric(maxRatio, "max-x-vs-serverII")
	}
}

// BenchmarkTable2 regenerates paper Table 2: I and S for all four methods
// across the six tasks and the mixed workload.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		meanI, meanS := res.Averages(freeride.MethodIterative)
		b.ReportMetric(100*meanI, "iterative-I-%")
		b.ReportMetric(100*meanS, "iterative-S-%")
		mixed, _ := res.Row("mixed", freeride.MethodIterative)
		b.ReportMetric(100*mixed.S, "mixed-S-%")
	}
}

// BenchmarkFigure1 regenerates Figure 1's epoch timeline and memory chart.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var rate float64
		span := res.EpochEnd - res.EpochStart
		for _, bs := range res.Bubbles {
			rate += float64(bs.Total()) / float64(span)
		}
		b.ReportMetric(100*rate/float64(len(res.Bubbles)), "bubble-rate-%")
	}
}

// BenchmarkFigure2 regenerates Figure 2's bubble statistics.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Stats {
			if s.MicroBatch == 4 && s.Model == "nanogpt-1.2b" {
				b.ReportMetric(100*s.BubbleRate, "rate-1.2B-%")
			}
			if s.MicroBatch == 8 {
				b.ReportMetric(100*s.BubbleRate, "rate-mb8-%")
			}
		}
	}
}

// BenchmarkFigure7BatchSize regenerates Figure 7(a,b).
func BenchmarkFigure7BatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7BatchSize(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var maxI float64
		for _, row := range res.Rows {
			if row.I > maxI {
				maxI = row.I
			}
		}
		b.ReportMetric(100*maxI, "max-I-%")
	}
}

// BenchmarkFigure7ModelSize regenerates Figure 7(c,d).
func BenchmarkFigure7ModelSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7ModelSize(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Rows)), "rows")
	}
}

// BenchmarkFigure7MicroBatch regenerates Figure 7(e,f).
func BenchmarkFigure7MicroBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7MicroBatch(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Rows)), "rows")
	}
}

// BenchmarkFigure8 regenerates Figure 8's resource-limit demonstrations.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.GraceKills), "grace-kills")
	}
}

// BenchmarkFigure9 regenerates Figure 9's bubble-time breakdown.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Task == "pagerank" {
				b.ReportMetric(100*row.Runtime, "pagerank-runtime-%")
			}
			if row.Task == "vgg19" {
				b.ReportMetric(100*row.OOM, "vgg19-oom-%")
			}
		}
	}
}

// BenchmarkAblationGracePeriod measures how the framework-enforced grace
// period affects overhead (an ablation this reproduction adds; ROADMAP.md,
// "Failure model & recovery", has the grace-kill semantics, and
// benchmark/README.md the repository benchmark these go-test benches predate).
func BenchmarkAblationGracePeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationGrace(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(100*row.I, "I-"+row.Label+"-%")
		}
	}
}

// BenchmarkAblationRPCLatency sweeps the control-plane latency.
func BenchmarkAblationRPCLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationRPCLatency(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(float64(row.Steps), "steps-"+row.Label)
		}
	}
}

// BenchmarkAblationSafetyMargin sweeps the reporter's bubble safety margin.
func BenchmarkAblationSafetyMargin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationSafetyMargin(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(100*row.S, "S-"+row.Label+"-%")
		}
	}
}
