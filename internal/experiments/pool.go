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

// runCells runs the cells of a sweep's n-cell skeleton that belong to this
// shard — cell i where i mod ShardCount == Shard; the skeleton order is
// deterministic, so shards partition exactly — on the pool, Parallelism at a
// time, and returns their rows in skeleton order. run(i) returns cell i's
// rows, which land in the cell's own slot, so the output never depends on
// scheduling; an error comes back prefixed with label(i).
func runCells[R any](opts Options, n int, label func(i int) string, run func(i int) ([]R, error)) ([]R, error) {
	var idxs []int
	for i := 0; i < n; i++ {
		if i%opts.ShardCount == opts.Shard {
			idxs = append(idxs, i)
		}
	}
	slots := make([][]R, len(idxs))
	err := forEachIndex(opts.Parallelism, len(idxs), func(j int) (err error) {
		if slots[j], err = run(idxs[j]); err != nil {
			return fmt.Errorf("%s: %w", label(idxs[j]), err)
		}
		return nil
	})
	var rows []R
	for _, s := range slots {
		rows = append(rows, s...)
	}
	return rows, err
}
