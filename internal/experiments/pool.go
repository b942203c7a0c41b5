package experiments

import (
	"fmt"
	"runtime"
	"sync"
)

// forEachIndex runs fn(0..n-1) on a bounded worker pool of the given width
// (0 or negative selects GOMAXPROCS) and returns the first error observed.
//
// Every experiment grid is a cross product of independent simulations: each
// session owns a private engine, and the package-level profile/baseline
// caches in package freeride are singleflight-guarded, so jobs can run
// concurrently. Determinism is preserved by construction — each job writes
// only its own result slot, so the output order never depends on
// scheduling, and each simulation is seeded identically regardless of which
// worker runs it.
func forEachIndex(parallel, n int, fn func(i int) error) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	worker := func() {
		defer wg.Done()
		for {
			mu.Lock()
			if firstErr != nil || next >= n {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()
			if err := fn(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
		}
	}
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go worker()
	}
	wg.Wait()
	return firstErr
}

// runCells is how every grid in this package runs, and the only caller of
// forEachIndex: it runs the cells of a grid's skeleton that belong to this
// shard — cell i where i mod ShardCount == Shard; the skeleton order is
// deterministic, so shards partition exactly — on the pool, Parallelism at a
// time, and returns their results in skeleton order. Each result lands in
// its cell's own slot, so the output never depends on scheduling; an error
// comes back prefixed with the cell's label. A Shard outside [0, ShardCount)
// is an error: run as some other shard, its rows would be counted twice.
func runCells[C, R any](opts Options, cells []C, label func(C) string, run func(C) (R, error)) ([]R, error) {
	if opts.Shard < 0 || opts.Shard >= opts.ShardCount {
		return nil, fmt.Errorf("experiments: shard %d of %d is out of range", opts.Shard, opts.ShardCount)
	}
	var mine []C
	for i, c := range cells {
		if i%opts.ShardCount == opts.Shard {
			mine = append(mine, c)
		}
	}
	out := make([]R, len(mine))
	err := forEachIndex(opts.Parallelism, len(mine), func(j int) (err error) {
		if out[j], err = run(mine[j]); err != nil {
			return fmt.Errorf("%s: %w", label(mine[j]), err)
		}
		return nil
	})
	return out, err
}
