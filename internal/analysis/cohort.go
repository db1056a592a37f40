package analysis

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sptree"
	"repro/internal/wfrun"
)

// CohortMatrix is a shared, incrementally maintained pairwise
// edit-distance matrix over a growing cohort of runs. Where
// DistanceMatrix recomputes all O(n²) pairs from scratch, a
// CohortMatrix differences only the new row when a run is added — the
// O(n) pairs that did not exist before — and keeps one reusable
// differencing engine per worker shard across calls, so the per-spec
// W_TG memo and all flat scratch tables stay warm for the lifetime of
// the cohort.
//
// Reads (Snapshot, Labels, Len) are safe for arbitrary concurrency
// with mutations; mutations (Reset, Add, Remove) serialize among
// themselves. The published matrix is immutable — every mutation
// builds fresh rows and swaps them in under the write lock — so a
// Snapshot taken at any moment is internally consistent.
type CohortMatrix struct {
	model   cost.Model
	workers int

	// computeMu serializes mutations; the engines are owned by
	// whichever mutation holds it.
	computeMu sync.Mutex
	engines   []*core.Engine

	mu     sync.RWMutex
	labels []string
	index  map[string]int
	runs   []*wfrun.Run
	d      [][]float64

	diffCalls atomic.Int64
	rebuilds  atomic.Int64
}

// NewCohortMatrix returns an empty cohort matrix for the given cost
// model. workers caps the differencing fan-out of Reset and Add;
// <= 0 means GOMAXPROCS (the DistanceMatrixWith default).
func NewCohortMatrix(m cost.Model, workers int) *CohortMatrix {
	return &CohortMatrix{
		model:   m,
		workers: workers,
		index:   map[string]int{},
	}
}

// Len returns the current cohort size.
func (c *CohortMatrix) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.labels)
}

// DiffCalls reports how many engine differencing calls the matrix has
// performed since creation — the incremental-maintenance tests and
// benchmarks assert on it.
func (c *CohortMatrix) DiffCalls() int64 { return c.diffCalls.Load() }

// Rebuilds reports how many full O(n²) recomputations (Reset calls)
// the matrix has performed — bulk-import coalescing asserts exactly
// one rebuild per batch, however many runs it carried.
func (c *CohortMatrix) Rebuilds() int64 { return c.rebuilds.Load() }

// Labels returns a copy of the cohort's run names in matrix order.
func (c *CohortMatrix) Labels() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.labels...)
}

// Members returns the cohort's names and runs in matrix order (the
// runs are the shared immutable objects, not copies) — the handoff a
// representation switch needs to rebuild the same cohort elsewhere.
func (c *CohortMatrix) Members() ([]string, []*wfrun.Run) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.labels...), append([]*wfrun.Run(nil), c.runs...)
}

// Has reports whether a run name is in the cohort.
func (c *CohortMatrix) Has(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.index[name]
	return ok
}

// Snapshot returns a deep copy of the current matrix, or nil when the
// cohort is empty. The copy is the caller's to keep: later mutations
// never touch it.
func (c *CohortMatrix) Snapshot() *Matrix {
	mx, _ := c.snapshotView()
	return mx
}

// snapshotView is Snapshot plus the name → row map of the same
// generation. Mutations publish a fresh map and never write to a
// published one, so the map is shared rather than copied.
func (c *CohortMatrix) snapshotView() (*Matrix, map[string]int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.labels) == 0 {
		return nil, nil
	}
	mx := &Matrix{
		Labels: append([]string(nil), c.labels...),
		D:      make([][]float64, len(c.d)),
	}
	for i, row := range c.d {
		mx.D[i] = append([]float64(nil), row...)
	}
	return mx, c.index
}

// growEngines ensures at least n reusable engines exist, one per
// worker shard. Caller must hold computeMu; workers then index the
// slice read-only.
func (c *CohortMatrix) growEngines(n int) {
	for len(c.engines) < n {
		c.engines = append(c.engines, core.NewEngine(c.model))
	}
}

// workerCount caps the configured fan-out at the number of shards the
// work splits into (rows for Reset, cells for Add), and at least one.
func (c *CohortMatrix) workerCount(shards int) int {
	return fanOut(c.workers, shards)
}

// Reset replaces the whole cohort and recomputes every pairwise
// distance through pairwise, with the cohort's own engines.
// opts.Context and opts.Progress apply as in DistanceMatrixWith;
// opts.Workers is ignored, the cohort keeps the worker count it was
// created with. On error the published cohort is unchanged.
func (c *CohortMatrix) Reset(names []string, runs []*wfrun.Run, opts Options) error {
	if len(names) != len(runs) {
		return fmt.Errorf("analysis: %d names for %d runs", len(names), len(runs))
	}
	if err := uniqueNames(names); err != nil {
		return err
	}
	c.computeMu.Lock()
	defer c.computeMu.Unlock()
	c.rebuilds.Add(1)
	n := len(runs)
	workers := c.workerCount(n - 1)
	c.growEngines(workers)
	d, err := pairwise(c.engines[:workers], runs, names, opts, &c.diffCalls)
	if err != nil {
		return err
	}
	index := make(map[string]int, n)
	for i, name := range names {
		index[name] = i
	}
	c.mu.Lock()
	c.labels = append([]string(nil), names...)
	c.runs = append([]*wfrun.Run(nil), runs...)
	c.index = index
	c.d = d
	c.mu.Unlock()
	return nil
}

// pairwise differences every pair i < j of runs into a fresh n×n
// matrix. It is the package's one O(n²) fan-out, shared by
// DistanceMatrixWith and CohortMatrix.Reset. The unit of work is a row
// of the upper triangle: each worker claims the next unclaimed row,
// longest first, and differences it with its own engine, so the shards
// balance to within one row's work and an engine that claims no row
// never pays its warm-up. Each successful diff bumps diffs when it is
// non-nil.
func pairwise(engines []*core.Engine, runs []*wfrun.Run, labels []string, opts Options, diffs *atomic.Int64) ([][]float64, error) {
	n := len(runs)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	// Repair stale tree IDs once, single-threaded: afterwards the
	// per-shard engines index the shared trees concurrently but
	// read-only, which is safe exactly when IDs are dense preorder.
	var ti sptree.TreeIndex
	for _, r := range runs {
		if r != nil && r.Tree != nil {
			ti.Rebuild(r.Tree)
		}
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

// Add appends a run to the cohort, differencing only the n new pairs
// (new run versus each existing member) across the worker shards. If
// the name is already present the old row is replaced — the
// re-imported-run path — which still costs only O(n) diffs.
func (c *CohortMatrix) Add(name string, run *wfrun.Run) error {
	if run == nil || run.Tree == nil {
		return fmt.Errorf("analysis: nil run %q", name)
	}
	c.computeMu.Lock()
	defer c.computeMu.Unlock()

	// Work on private copies of the member list: the published state
	// is only swapped at the end, under the write lock.
	c.mu.RLock()
	labels := append([]string(nil), c.labels...)
	runs := append([]*wfrun.Run(nil), c.runs...)
	oldD := c.d
	replaced := -1
	if i, ok := c.index[name]; ok {
		replaced = i
	}
	c.mu.RUnlock()

	if replaced >= 0 {
		labels = append(labels[:replaced], labels[replaced+1:]...)
		runs = append(runs[:replaced], runs[replaced+1:]...)
	}
	n := len(runs)

	var ti sptree.TreeIndex
	ti.Rebuild(run.Tree)
	for _, r := range runs {
		if r.Tree != nil {
			ti.Rebuild(r.Tree)
		}
	}
	row := make([]float64, n)
	workers := c.workerCount(n)
	c.growEngines(workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := c.engines[w]
			for j := w; j < n; j += workers {
				dist, err := eng.Distance(run, runs[j])
				if err != nil {
					errs[w] = fmt.Errorf("analysis: runs %q and %q: %w", name, labels[j], err)
					return
				}
				c.diffCalls.Add(1)
				row[j] = dist
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Assemble the (n+1)×(n+1) matrix from the surviving rows of the
	// published matrix plus the new row/column.
	d := make([][]float64, n+1)
	for i := 0; i < n; i++ {
		d[i] = make([]float64, n+1)
		srcRow := i
		if replaced >= 0 && i >= replaced {
			srcRow++
		}
		for j := 0; j < n; j++ {
			srcCol := j
			if replaced >= 0 && j >= replaced {
				srcCol++
			}
			d[i][j] = oldD[srcRow][srcCol]
		}
		d[i][n] = row[i]
	}
	d[n] = append(append([]float64(nil), row...), 0)

	labels = append(labels, name)
	runs = append(runs, run)
	index := make(map[string]int, len(labels))
	for i, l := range labels {
		index[l] = i
	}
	c.mu.Lock()
	c.labels = labels
	c.runs = runs
	c.index = index
	c.d = d
	c.mu.Unlock()
	return nil
}

// Remove drops a run from the cohort (no differencing at all) and
// reports whether it was present.
func (c *CohortMatrix) Remove(name string) bool {
	c.computeMu.Lock()
	defer c.computeMu.Unlock()
	c.mu.RLock()
	i, ok := c.index[name]
	oldD := c.d
	oldLabels := c.labels
	oldRuns := c.runs
	c.mu.RUnlock()
	if !ok {
		return false
	}
	n := len(oldLabels) - 1
	labels := make([]string, 0, n)
	labels = append(labels, oldLabels[:i]...)
	labels = append(labels, oldLabels[i+1:]...)
	runs := make([]*wfrun.Run, 0, n)
	runs = append(runs, oldRuns[:i]...)
	runs = append(runs, oldRuns[i+1:]...)
	d := make([][]float64, n)
	for r := 0; r < n; r++ {
		src := r
		if r >= i {
			src++
		}
		d[r] = make([]float64, 0, n)
		d[r] = append(d[r], oldD[src][:i]...)
		d[r] = append(d[r], oldD[src][i+1:]...)
	}
	index := make(map[string]int, n)
	for j, l := range labels {
		index[l] = j
	}
	c.mu.Lock()
	c.labels = labels
	c.runs = runs
	c.index = index
	c.d = d
	c.mu.Unlock()
	return true
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
