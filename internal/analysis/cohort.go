package analysis

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/wfrun"
)

// dense is one published generation of a dense cohort: the run names
// in matrix order, name → row, the runs and the n×n distance matrix.
// A published generation is never written again. without and with
// build the next one, so a view handed out by HybridCohort.View shares
// the rows instead of copying them.
type dense struct {
	labels []string
	index  map[string]int
	runs   []*wfrun.Run
	d      [][]float64
}

func newDense(labels []string, runs []*wfrun.Run, d [][]float64) *dense {
	return &dense{labels: labels, index: indexNames(labels), runs: runs, d: d}
}

// indexNames maps each label to its position.
func indexNames(labels []string) map[string]int {
	index := make(map[string]int, len(labels))
	for i, l := range labels {
		index[l] = i
	}
	return index
}

// without returns the generation minus the named run (no differencing
// at all), or g itself when the name is absent.
func (g *dense) without(name string) *dense {
	i, ok := g.index[name]
	if !ok {
		return g
	}
	n := len(g.labels) - 1
	labels := make([]string, 0, n)
	labels = append(append(labels, g.labels[:i]...), g.labels[i+1:]...)
	runs := make([]*wfrun.Run, 0, n)
	runs = append(append(runs, g.runs[:i]...), g.runs[i+1:]...)
	d := make([][]float64, n)
	for r := range d {
		src := r
		if r >= i {
			src++
		}
		d[r] = make([]float64, 0, n)
		d[r] = append(append(d[r], g.d[src][:i]...), g.d[src][i+1:]...)
	}
	return newDense(labels, runs, d)
}

// with returns the generation plus one run, whose distances to the
// current members, in matrix order, are row. The name must be absent.
func (g *dense) with(name string, run *wfrun.Run, row []float64) *dense {
	n := len(g.labels)
	d := make([][]float64, n+1)
	for i, src := range g.d {
		d[i] = append(append(make([]float64, 0, n+1), src...), row[i])
	}
	d[n] = append(append(make([]float64, 0, n+1), row...), 0)
	labels := append(g.labels[:n:n], name)
	runs := append(g.runs[:n:n], run)
	return newDense(labels, runs, d)
}

// pairwise differences every pair i < j of runs into a fresh n×n
// matrix. It is the package's one O(n²) fan-out, shared by
// DistanceMatrixWith and the dense side of HybridCohort.Reset. The
// unit of work is a row of the upper triangle: each worker claims the
// next unclaimed row, longest first, and differences it with its own
// engine, so the shards balance to within one row's work and an engine
// that claims no row never pays its warm-up. Each successful diff
// bumps diffs when it is non-nil.
func pairwise(engines []*core.Engine, runs []*wfrun.Run, labels []string, opts Options, diffs *atomic.Int64) ([][]float64, error) {
	n := len(runs)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	// A nil context means no cancellation: a nil channel never fires.
	var cancelled <-chan struct{}
	if opts.Context != nil {
		cancelled = opts.Context.Done()
	}
	report := func() {}
	if opts.Progress != nil {
		var mu sync.Mutex
		done, total := 0, n*(n-1)/2
		report = func() {
			mu.Lock()
			done++
			opts.Progress(done, total)
			mu.Unlock()
		}
	}
	var next atomic.Int64 // the next row to claim
	var wg sync.WaitGroup
	errs := make([]error, len(engines))
	for w, eng := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				for j := i + 1; j < n; j++ {
					select {
					case <-cancelled:
						return
					default:
					}
					dist, err := eng.Distance(runs[i], runs[j])
					if err != nil {
						errs[w] = fmt.Errorf("analysis: runs %q and %q: %w", labels[i], labels[j], err)
						return
					}
					if diffs != nil {
						diffs.Add(1)
					}
					// Each row has one owner, so workers write disjoint cells.
					d[i][j] = dist
					d[j][i] = dist
					report()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// A cancellation that raced the last pairs still fails the call, so
	// a caller never mistakes an aborted matrix for a complete one.
	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return nil, fmt.Errorf("analysis: cohort aborted: %w", err)
		}
	}
	return d, nil
}

// row differences run against every member of g, striping the cells
// across the engines: the n new pairs an Add pays for. Each successful
// diff bumps diffs.
func (g *dense) row(engines []*core.Engine, name string, run *wfrun.Run, diffs *atomic.Int64) ([]float64, error) {
	n, workers := len(g.runs), len(engines)
	row := make([]float64, n)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w, eng := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < n; j += workers {
				dist, err := eng.Distance(run, g.runs[j])
				if err != nil {
					errs[w] = fmt.Errorf("analysis: runs %q and %q: %w", name, g.labels[j], err)
					return
				}
				diffs.Add(1)
				row[j] = dist
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return row, nil
}

func uniqueNames(names []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return fmt.Errorf("analysis: duplicate run name %q in cohort", n)
		}
		seen[n] = true
	}
	return nil
}
