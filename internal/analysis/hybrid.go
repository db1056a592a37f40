package analysis

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/metricindex"
	"repro/internal/par"
	"repro/internal/wfrun"
)

// DefaultIndexThreshold is the cohort size at which a HybridCohort
// abandons the dense O(n²) matrix for the metric index. Below it the
// matrix is cheap to keep current and answers every query shape
// (including silhouettes and MeanAll context) exactly; above it the
// O(n²) diff bill dominates everything else the server does.
const DefaultIndexThreshold = 256

// HybridOptions tunes a HybridCohort.
type HybridOptions struct {
	// IndexThreshold is the cohort size at which the dense matrix is
	// replaced by the metric index: 0 means DefaultIndexThreshold,
	// negative disables indexing entirely (always dense).
	IndexThreshold int
}

// HybridCohort maintains one cohort of runs incrementally (Add
// differences only the new row, Remove differences nothing, Reset
// rebuilds in one fan-out, and the diff counters are exported) while
// choosing the representation by size: a dense distance matrix below
// the index threshold, a metricindex.Index at or above it. Switches
// preserve the cohort and the cumulative counters; switching down waits
// until the cohort falls below half the threshold, so a membership
// hovering at the boundary never thrashes O(n²) rebuilds.
//
// One lock guards the cohort: mutations hold it for writing, including
// their differencing, and reads wait for them. A view handed out by
// View is never written afterwards and survives any later mutation.
type HybridCohort struct {
	model     cost.Model
	threshold int // <= 0: indexing disabled

	mu sync.RWMutex
	dn *dense // exactly one of dn/ix is non-nil
	ix *metricindex.Index
	// engines are the dense side's, one per worker, reused across
	// Reset and Add so the W_TG memo and scratch tables stay warm.
	engines []*core.Engine

	// diffs counts dense diffs, rebuilds dense Resets; both also hold
	// the counters of retired indexes, as does pruned, so DiffCalls,
	// PrunedPairs and Rebuilds stay cumulative across switches.
	diffs    atomic.Int64
	rebuilds int64
	pruned   int64
}

// NewHybridCohort returns an empty hybrid cohort (dense until the
// threshold is reached) for the given cost model. Its differencing
// fans out over one worker per core.
func NewHybridCohort(m cost.Model, opts HybridOptions) *HybridCohort {
	th := opts.IndexThreshold
	if th == 0 {
		th = DefaultIndexThreshold
	}
	return &HybridCohort{
		model:     m,
		threshold: th,
		dn:        newDense(nil, nil, &cluster.Matrix{}),
	}
}

func (hc *HybridCohort) indexEligible(n int) bool {
	return hc.threshold > 0 && n >= hc.threshold
}

func (hc *HybridCohort) newIndex() *metricindex.Index {
	return metricindex.New(hc.model, metricindex.Options{})
}

// denseEngines returns the engines for a dense fan-out over shards
// units of work, growing the pool as needed. Caller holds hc.mu.
func (hc *HybridCohort) denseEngines(shards int) []*core.Engine {
	w := par.Workers(shards)
	for len(hc.engines) < w {
		hc.engines = append(hc.engines, core.NewEngine(hc.model))
	}
	return hc.engines[:w]
}

// useIndex moves the cohort into ix, dropping the dense side. Caller
// holds hc.mu.
func (hc *HybridCohort) useIndex(ix *metricindex.Index) {
	hc.dn, hc.engines, hc.ix = nil, nil, ix
}

// resetDense rebuilds the cohort as a dense matrix, retiring any index
// only once the build succeeds. Caller holds hc.mu.
func (hc *HybridCohort) resetDense(names []string, runs []*wfrun.Run, opts Options) error {
	hc.rebuilds++
	d, err := pairwise(hc.denseEngines(len(runs)-1), runs, names, opts, &hc.diffs)
	if err != nil {
		return err
	}
	if hc.ix != nil {
		hc.diffs.Add(hc.ix.ExactDiffs())
		hc.pruned += hc.ix.PrunedPairs()
		hc.rebuilds += hc.ix.Rebuilds()
		hc.ix = nil
	}
	hc.dn = newDense(append([]string(nil), names...), append([]*wfrun.Run(nil), runs...), d)
	return nil
}

// Len returns the current cohort size.
func (hc *HybridCohort) Len() int {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	if hc.ix != nil {
		return hc.ix.Len()
	}
	return len(hc.dn.labels)
}

// Indexed reports whether the cohort currently lives in the metric
// index.
func (hc *HybridCohort) Indexed() bool {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	return hc.ix != nil
}

// DiffCalls reports the cumulative exact differencing calls across
// both representations and all switches.
func (hc *HybridCohort) DiffCalls() int64 {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	n := hc.diffs.Load()
	if hc.ix != nil {
		n += hc.ix.ExactDiffs()
	}
	return n
}

// PrunedPairs reports the cumulative candidate pairs index queries
// eliminated without an exact diff (0 while the cohort has only ever
// been dense).
func (hc *HybridCohort) PrunedPairs() int64 {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	n := hc.pruned
	if hc.ix != nil {
		n += hc.ix.PrunedPairs()
	}
	return n
}

// Rebuilds reports the cumulative full rebuilds (Reset calls and
// representation switches) across both representations.
func (hc *HybridCohort) Rebuilds() int64 {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	n := hc.rebuilds
	if hc.ix != nil {
		n += hc.ix.Rebuilds()
	}
	return n
}

// CohortView is the representation-agnostic result of View: exactly
// one of Matrix (dense) and Index (metric index) is non-nil for a
// non-empty cohort. Both variants are immutable. Build a dense view
// of a standalone matrix with DenseView, so IndexOf can resolve names.
type CohortView struct {
	Matrix *Matrix
	Index  *metricindex.Cohort
	names  map[string]int // dense side: run name → matrix row
}

// DenseView wraps a standalone matrix (nil for an empty cohort) as a
// view, indexing its labels by name.
func DenseView(mx *Matrix) *CohortView {
	v := &CohortView{Matrix: mx}
	if mx != nil {
		v.names = indexNames(mx.Labels)
	}
	return v
}

// Len returns the number of runs in the view.
func (v *CohortView) Len() int {
	switch {
	case v == nil:
		return 0
	case v.Matrix != nil:
		return len(v.Matrix.Labels)
	case v.Index != nil:
		return v.Index.Len()
	}
	return 0
}

// Label returns the name of run i in cohort order.
func (v *CohortView) Label(i int) string {
	if v.Index != nil {
		return v.Index.Label(i)
	}
	return v.Matrix.Labels[i]
}

// IndexOf resolves a run name to its position in cohort order.
func (v *CohortView) IndexOf(name string) (int, bool) {
	if v.Index != nil {
		return v.Index.IndexOf(name)
	}
	i, ok := v.names[name]
	return i, ok
}

// Indexed reports whether the view is index-backed.
func (v *CohortView) Indexed() bool { return v != nil && v.Index != nil }

// The cohort queries below are the one place a query picks between
// the dense internal/cluster function and its metric-index twin. The
// indexed nearest and outlier answers are byte-identical to the dense
// ones, apart from OutlierScore.MeanAll, which stays 0; clustering an
// indexed view runs sampled k-medoids, whose Silhouette is 0. An
// empty view answers errEmptyView.

var errEmptyView = errors.New("analysis: empty cohort")

// Nearest returns the k runs closest to run i, nearest first.
func (v *CohortView) Nearest(i, k int) ([]cluster.Neighbor, error) {
	switch {
	case v.Index != nil:
		return cluster.IndexedNearest(v.Index, i, k)
	case v.Matrix == nil:
		return nil, errEmptyView
	}
	return cluster.Nearest(v.Matrix.D, i, k)
}

// Outliers scores every run by its mean distance to its k nearest
// neighbors, most anomalous first.
func (v *CohortView) Outliers(k int) ([]cluster.OutlierScore, error) {
	switch {
	case v.Index != nil:
		return cluster.IndexedOutliers(v.Index, k)
	case v.Matrix == nil:
		return nil, errEmptyView
	}
	return cluster.Outliers(v.Matrix.D, k)
}

// Cluster partitions the cohort into k clusters: full PAM over a dense
// view, sampled k-medoids over an indexed one.
func (v *CohortView) Cluster(ctx context.Context, k int, seed int64) (*cluster.Clustering, error) {
	switch {
	case v.Index != nil:
		return cluster.SampledKMedoids(ctx, v.Index, k, seed, cluster.SampleOptions{})
	case v.Matrix == nil:
		return nil, errEmptyView
	}
	return cluster.KMedoidsContext(ctx, v.Matrix.D, k, seed)
}

// Medoid returns the position of the cohort's most typical run: the
// exact medoid of a dense view, the sampled 1-medoid of an indexed
// one. ok is false when the view is empty.
func (v *CohortView) Medoid(ctx context.Context) (i int, ok bool, err error) {
	switch {
	case v.Len() == 0:
		return 0, false, nil
	case v.Index != nil:
		cl, err := v.Cluster(ctx, 1, 1)
		if err != nil {
			return 0, false, err
		}
		return cl.Medoids[0], true, nil
	}
	return cluster.Medoid(v.Matrix.D), true, nil
}

// View returns an immutable view of the cohort in its current
// representation (a CohortView with both fields nil when empty). A
// dense view shares the published generation's matrix.
func (hc *HybridCohort) View() *CohortView {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	switch {
	case hc.ix != nil:
		return &CohortView{Index: hc.ix.Snapshot()}
	case len(hc.dn.labels) == 0:
		return &CohortView{}
	}
	return &CohortView{Matrix: &Matrix{Labels: hc.dn.labels, D: hc.dn.d}, names: hc.dn.index}
}

// Reset replaces the whole cohort, choosing the representation by the
// new size. The old representation is only retired once the new build
// succeeds; on error the cohort is unchanged. A dense build honours
// opts.Context and opts.Progress as in DistanceMatrixWith, with the
// cohort's own engines; an index build ignores opts.
func (hc *HybridCohort) Reset(names []string, runs []*wfrun.Run, opts Options) error {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if hc.indexEligible(len(runs)) {
		ix := hc.ix
		if ix == nil {
			ix = hc.newIndex()
		}
		if err := ix.Reset(names, runs); err != nil {
			return err
		}
		hc.useIndex(ix)
		return nil
	}
	if len(names) != len(runs) {
		return fmt.Errorf("analysis: %d names for %d runs", len(names), len(runs))
	}
	if err := uniqueNames(names); err != nil {
		return err
	}
	return hc.resetDense(names, runs, opts)
}

// Add appends a run, or replaces the run of that name, differencing
// only the new run against the other members. A dense cohort that
// reaches the threshold is re-homed into a fresh metric index — m·n
// diffs, paid once — so steady incremental growth crosses over without
// any caller involvement. On error the cohort is unchanged.
func (hc *HybridCohort) Add(name string, run *wfrun.Run) error {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if hc.ix != nil {
		return hc.ix.Add(name, run)
	}
	if run == nil || run.Tree == nil {
		return fmt.Errorf("analysis: nil run %q", name)
	}
	base := hc.dn.without(name)
	row, err := base.row(hc.denseEngines(len(base.runs)), name, run, &hc.diffs)
	if err != nil {
		return err
	}
	dn, err := base.with(name, run, row)
	if err != nil {
		return err
	}
	if hc.indexEligible(len(dn.labels)) {
		ix := hc.newIndex()
		if err := ix.Reset(dn.labels, dn.runs); err != nil {
			return err
		}
		hc.useIndex(ix)
		return nil
	}
	hc.dn = dn
	return nil
}

// Remove drops a run and reports whether it was present. A dense
// cohort differences nothing. An indexed cohort shrinking below half
// the threshold returns to a dense matrix.
func (hc *HybridCohort) Remove(name string) bool {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if hc.ix == nil {
		dn := hc.dn.without(name)
		if dn == hc.dn {
			return false
		}
		hc.dn = dn
		return true
	}
	if !hc.ix.Remove(name) {
		return false
	}
	if hc.threshold > 0 && hc.ix.Len() < hc.threshold/2 {
		names, runs := hc.ix.Members()
		// On error the index, which is still correct, stays.
		_ = hc.resetDense(names, runs, Options{})
	}
	return true
}
