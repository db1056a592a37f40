package analysis

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/wfrun"
)

// dense is one published generation of a dense cohort: the run names
// in matrix order, name → row, the runs and the n×n distance matrix.
// A published generation is never written again. without and with
// build the next one, so a view handed out by HybridCohort.View shares
// the matrix instead of copying it.
type dense struct {
	labels []string
	index  map[string]int
	runs   []*wfrun.Run
	d      *cluster.Matrix
}

func newDense(labels []string, runs []*wfrun.Run, d *cluster.Matrix) *dense {
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
	return newDense(labels, runs, g.d.Without(i))
}

// with returns the generation plus one run, whose distances to the
// current members, in matrix order, are row. The name must be absent.
func (g *dense) with(name string, run *wfrun.Run, row []float64) (*dense, error) {
	d, err := g.d.With(row)
	if err != nil {
		return nil, err
	}
	n := len(g.labels)
	return newDense(append(g.labels[:n:n], name), append(g.runs[:n:n], run), d), nil
}

// pairwise differences every pair i < j of runs into a fresh n×n
// matrix, checked once when it is complete. It is the package's one
// O(n²) fan-out, shared by
// DistanceMatrixWith and the dense side of HybridCohort.Reset. The
// unit of work is a row of the upper triangle: each worker claims the
// next unclaimed row, longest first, and differences it with its own
// engine, so the shards balance to within one row's work and an engine
// that claims no row never pays its warm-up. Each successful diff
// bumps diffs when it is non-nil.
func pairwise(engines []*core.Engine, runs []*wfrun.Run, labels []string, opts Options, diffs *atomic.Int64) (*cluster.Matrix, error) {
	n := len(runs)
	d := make([][]float64, n)
	cells := make([]float64, n*n)
	for i := range d {
		d[i] = cells[i*n : (i+1)*n]
	}
	// A nil context means no cancellation: a nil channel never fires.
	var cancelled <-chan struct{}
	if opts.Context != nil {
		cancelled = opts.Context.Done()
	}
	aborted := func() error { return fmt.Errorf("analysis: cohort aborted: %w", opts.Context.Err()) }
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
	err := par.For(len(engines), n-1, func(w, i int) error {
		for j := i + 1; j < n; j++ {
			select {
			case <-cancelled:
				return aborted()
			default:
			}
			dist, err := engines[w].Distance(runs[i], runs[j])
			if err != nil {
				return fmt.Errorf("analysis: runs %q and %q: %w", labels[i], labels[j], err)
			}
			if diffs != nil {
				diffs.Add(1)
			}
			// Each row has one owner, so workers write disjoint cells.
			d[i][j] = dist
			d[j][i] = dist
			report()
		}
		return nil
	})
	// A cancellation that raced the last pairs still fails the call, so
	// a caller never mistakes an aborted matrix for a complete one.
	if err == nil && opts.Context != nil && opts.Context.Err() != nil {
		err = aborted()
	}
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return &cluster.Matrix{}, nil
	}
	return cluster.NewMatrix(d)
}

// row differences run against every member of g, each worker claiming
// the next cell: the n new pairs an Add pays for. Each successful diff
// bumps diffs.
func (g *dense) row(engines []*core.Engine, name string, run *wfrun.Run, diffs *atomic.Int64) ([]float64, error) {
	row := make([]float64, len(g.runs))
	err := par.For(len(engines), len(row), func(w, j int) error {
		dist, err := engines[w].Distance(run, g.runs[j])
		if err != nil {
			return fmt.Errorf("analysis: runs %q and %q: %w", name, g.labels[j], err)
		}
		diffs.Add(1)
		row[j] = dist
		return nil
	})
	if err != nil {
		return nil, err
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
