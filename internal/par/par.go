// Package par is the repository's one data-parallel loop: a fixed set
// of goroutines that claim indices in increasing order. Cohort
// matrices, landmark columns, bulk parses and warm-start decodes all
// run through For, sized by Workers.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the worker count for n units of work: GOMAXPROCS,
// capped at n, and at least one.
func Workers(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n)) }

// For calls fn(w, i) once for each i in [0, n), on up to workers
// goroutines. Each goroutine claims the next unclaimed i, in
// increasing order; w, below workers, names the goroutine, so a
// caller can keep one engine or buffer per worker.
//
// Once a call fails no goroutine claims another index: For waits for
// the calls in flight and returns the error of the lowest failing i.
// Because claims rise, that is the first failure in input order. With
// one worker (or one index) fn runs on the caller's goroutine.
func For(workers, n int, fn func(w, i int) error) error {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64 // the next index to claim
		failed atomic.Bool
		mu     sync.Mutex // guards first and err
		first  = n
		err    error
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if e := fn(w, i); e != nil {
					failed.Store(true)
					mu.Lock()
					if i < first {
						first, err = i, e
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return err
}
