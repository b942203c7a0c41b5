package experiments

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"freeride/internal/sidetask"
)

func TestForEachIndexCoversAllOnce(t *testing.T) {
	for _, parallel := range []int{1, 3, 16} {
		const n = 100
		var counts [n]int32
		err := forEachIndex(parallel, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parallel=%d: index %d ran %d times", parallel, i, c)
			}
		}
	}
}

func TestForEachIndexPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	var ran int32
	err := forEachIndex(4, 50, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if atomic.LoadInt32(&ran) > 50 {
		t.Fatalf("ran %d jobs", ran)
	}
}

// TestFigureGridsParallelDeterminism reruns the figure grids that joined
// the worker pool (Figure 8's rigs, Figure 9's breakdown, Figure 2's
// profiling sweeps) with different worker counts: identical seeds must
// produce identical results regardless of scheduling.
func TestFigureGridsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full grids in -short mode")
	}
	opts := Options{Epochs: 2, WorkScale: sidetask.WorkNone, Seed: 1}

	opts.Parallelism = 1
	fig8Seq, err := RunFigure8(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig9Seq, err := RunFigure9(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig2Seq, err := RunFigure2(opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.Parallelism = 8
	fig8Par, err := RunFigure8(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig9Par, err := RunFigure9(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig2Par, err := RunFigure2(opts)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(fig8Seq, fig8Par) {
		t.Errorf("parallel Figure 8 diverged from sequential:\nseq %+v\npar %+v", fig8Seq, fig8Par)
	}
	if !reflect.DeepEqual(fig9Seq.Rows, fig9Par.Rows) {
		t.Errorf("parallel Figure 9 diverged from sequential:\nseq %+v\npar %+v", fig9Seq.Rows, fig9Par.Rows)
	}
	if !reflect.DeepEqual(fig2Seq, fig2Par) {
		t.Errorf("parallel Figure 2 diverged from sequential:\nseq %+v\npar %+v", fig2Seq, fig2Par)
	}
}

// TestParallelRunnerDeterminism reruns a small Table 2 grid with different
// worker counts: identical seeds must produce identical rows regardless of
// scheduling — the acceptance criterion for the concurrent grid runner.
func TestParallelRunnerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	opts := Options{Epochs: 2, WorkScale: sidetask.WorkNone, Seed: 1}

	opts.Parallelism = 1
	seq, err := RunTable2(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 8
	par, err := RunTable2(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Rows, par.Rows) {
		t.Fatalf("parallel grid diverged from sequential:\nseq %+v\npar %+v", seq.Rows, par.Rows)
	}
}

// TestPaperGridsShardsPartition: the grids that did not honour Shard before
// they ran through runCells (Table 2 and a Figure 7 panel stand for them;
// the sweeps have their own partition tests) now split exactly like the
// sweeps do — shards 0/3, 1/3, 2/3 hold every row once, in order.
func TestPaperGridsShardsPartition(t *testing.T) {
	opts := Options{Epochs: 2, WorkScale: sidetask.WorkNone, Seed: 1}
	shardsPartition(t, opts, 1, func(o Options) ([]Table2Row, error) {
		r, err := RunTable2(o)
		if err != nil {
			return nil, err
		}
		return r.Rows, nil
	})
	shardsPartition(t, opts, 1, func(o Options) ([]Figure7Row, error) {
		r, err := RunFigure7BatchSize(o)
		if err != nil {
			return nil, err
		}
		return r.Rows, nil
	})
}

// TestShardOutOfRangeIsAnError: a mis-numbered shard (4 of 4) used to run as
// shard 0, so its rows were counted twice; every grid must refuse it.
func TestShardOutOfRangeIsAnError(t *testing.T) {
	for _, shard := range []int{-1, 4} {
		opts := Options{Epochs: 2, WorkScale: sidetask.WorkNone, Shard: shard, ShardCount: 4}
		if _, err := RunTable2(opts); err == nil {
			t.Errorf("RunTable2 accepted shard %d of 4", shard)
		}
		if _, err := RunFaultSweep(opts); err == nil {
			t.Errorf("RunFaultSweep accepted shard %d of 4", shard)
		}
	}
}
