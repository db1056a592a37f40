package analysis

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/metricindex"
	"repro/internal/wfrun"
	"sync"
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

// HybridCohort maintains one cohort under the CohortMatrix discipline
// (incremental Add/Remove, bulk-coalesced Reset, exported diff
// counters) while choosing the representation by size: a dense
// CohortMatrix below the index threshold, a metricindex.Index at or
// above it. Switches preserve the cohort and the cumulative counters;
// switching down waits until the cohort falls below half the
// threshold, so a membership hovering at the boundary never thrashes
// O(n²) rebuilds.
//
// Unlike CohortMatrix, reads block while a mutation is in flight (the
// representation pointer itself is what mutations replace); the
// published views handed out by View remain immutable and
// survive any later mutation.
type HybridCohort struct {
	model     cost.Model
	workers   int
	threshold int // <= 0: indexing disabled

	mu sync.RWMutex
	cm *CohortMatrix // exactly one of cm/ix is non-nil
	ix *metricindex.Index

	// Counters of retired representations, so DiffCalls/Rebuilds stay
	// cumulative across switches.
	baseDiffs    int64
	basePruned   int64
	baseRebuilds int64
}

// NewHybridCohort returns an empty hybrid cohort (dense until the
// threshold is reached) for the given cost model. workers caps the
// differencing fan-out as in NewCohortMatrix.
func NewHybridCohort(m cost.Model, workers int, opts HybridOptions) *HybridCohort {
	th := opts.IndexThreshold
	if th == 0 {
		th = DefaultIndexThreshold
	}
	return &HybridCohort{
		model:     m,
		workers:   workers,
		threshold: th,
		cm:        NewCohortMatrix(m, workers),
	}
}

func (hc *HybridCohort) indexEligible(n int) bool {
	return hc.threshold > 0 && n >= hc.threshold
}

func (hc *HybridCohort) newIndex() *metricindex.Index {
	return metricindex.New(hc.model, metricindex.Options{Workers: hc.workers})
}

// retireCM and retireIX fold a representation's counters into the
// cumulative base before dropping it. Caller must hold hc.mu.
func (hc *HybridCohort) retireCM() {
	if hc.cm != nil {
		hc.baseDiffs += hc.cm.DiffCalls()
		hc.baseRebuilds += hc.cm.Rebuilds()
		hc.cm = nil
	}
}

func (hc *HybridCohort) retireIX() {
	if hc.ix != nil {
		hc.baseDiffs += hc.ix.ExactDiffs()
		hc.basePruned += hc.ix.PrunedPairs()
		hc.baseRebuilds += hc.ix.Rebuilds()
		hc.ix = nil
	}
}

// Len returns the current cohort size.
func (hc *HybridCohort) Len() int {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	if hc.ix != nil {
		return hc.ix.Len()
	}
	return hc.cm.Len()
}

// Has reports whether a run name is in the cohort.
func (hc *HybridCohort) Has(name string) bool {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	if hc.ix != nil {
		return hc.ix.Has(name)
	}
	return hc.cm.Has(name)
}

// Labels returns a copy of the cohort's run names.
func (hc *HybridCohort) Labels() []string {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	if hc.ix != nil {
		return hc.ix.Labels()
	}
	return hc.cm.Labels()
}

// Members returns the cohort's names and runs.
func (hc *HybridCohort) Members() ([]string, []*wfrun.Run) {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	if hc.ix != nil {
		return hc.ix.Members()
	}
	return hc.cm.Members()
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
	n := hc.baseDiffs
	if hc.ix != nil {
		n += hc.ix.ExactDiffs()
	} else {
		n += hc.cm.DiffCalls()
	}
	return n
}

// PrunedPairs reports the cumulative candidate pairs index queries
// eliminated without an exact diff (0 while the cohort has only ever
// been dense).
func (hc *HybridCohort) PrunedPairs() int64 {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	n := hc.basePruned
	if hc.ix != nil {
		n += hc.ix.PrunedPairs()
	}
	return n
}

// Rebuilds reports the cumulative full rebuilds (Reset calls) across
// both representations.
func (hc *HybridCohort) Rebuilds() int64 {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	n := hc.baseRebuilds
	if hc.ix != nil {
		n += hc.ix.Rebuilds()
	} else {
		n += hc.cm.Rebuilds()
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
		v.names = make(map[string]int, len(mx.Labels))
		for i, l := range mx.Labels {
			v.names[l] = i
		}
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
// empty view answers with the dense functions' empty-matrix error.

// dist returns the dense distances, nil for an empty view.
func (v *CohortView) dist() [][]float64 {
	if v.Matrix == nil {
		return nil
	}
	return v.Matrix.D
}

// Nearest returns the k runs closest to run i, nearest first.
func (v *CohortView) Nearest(i, k int) ([]cluster.Neighbor, error) {
	if v.Index != nil {
		return cluster.IndexedNearest(v.Index, i, k)
	}
	return cluster.Nearest(v.dist(), i, k)
}

// Outliers scores every run by its mean distance to its k nearest
// neighbors, most anomalous first.
func (v *CohortView) Outliers(k int) ([]cluster.OutlierScore, error) {
	if v.Index != nil {
		return cluster.IndexedOutliers(v.Index, k)
	}
	return cluster.Outliers(v.dist(), k)
}

// Cluster partitions the cohort into k clusters: full PAM over a dense
// view, sampled k-medoids over an indexed one.
func (v *CohortView) Cluster(ctx context.Context, k int, seed int64) (*cluster.Clustering, error) {
	if v.Index != nil {
		return cluster.SampledKMedoids(ctx, v.Index, k, seed, cluster.SampleOptions{})
	}
	return cluster.KMedoidsContext(ctx, v.dist(), k, seed)
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
	return v.Matrix.Medoid(), true, nil
}

// View returns an immutable view of the cohort in its current
// representation (a CohortView with both fields nil when empty).
func (hc *HybridCohort) View() *CohortView {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	if hc.ix != nil {
		return &CohortView{Index: hc.ix.Snapshot()}
	}
	mx, names := hc.cm.snapshotView()
	return &CohortView{Matrix: mx, names: names}
}

// Reset replaces the whole cohort, choosing the representation by the
// new size. The old representation is only retired once the new build
// succeeds. A dense build honours opts.Context and opts.Progress as in
// CohortMatrix.Reset; an index build ignores opts.
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
		if hc.ix == nil {
			hc.retireCM()
			hc.ix = ix
		}
	} else {
		cm := hc.cm
		if cm == nil {
			cm = NewCohortMatrix(hc.model, hc.workers)
		}
		if err := cm.Reset(names, runs, opts); err != nil {
			return err
		}
		if hc.cm == nil {
			hc.retireIX()
			hc.cm = cm
		}
	}
	return nil
}

// Add appends (or replaces) one run. A dense cohort that reaches the
// threshold is re-homed into a fresh metric index — m·n diffs, paid
// once — so steady incremental growth crosses over without any caller
// involvement.
func (hc *HybridCohort) Add(name string, run *wfrun.Run) error {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if hc.ix != nil {
		if err := hc.ix.Add(name, run); err != nil {
			return err
		}
		return nil
	}
	if err := hc.cm.Add(name, run); err != nil {
		return err
	}
	if hc.indexEligible(hc.cm.Len()) {
		names, runs := hc.cm.Members()
		ix := hc.newIndex()
		if err := ix.Reset(names, runs); err != nil {
			return err // cohort stays dense and correct; caller may retry
		}
		hc.retireCM()
		hc.ix = ix
	}
	return nil
}

// Remove drops a run and reports whether it was present. An indexed
// cohort shrinking below half the threshold returns to a dense matrix
// (best-effort: on a rebuild error the index, which is still correct,
// stays).
func (hc *HybridCohort) Remove(name string) bool {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if hc.ix == nil {
		return hc.cm.Remove(name)
	}
	ok := hc.ix.Remove(name)
	if !ok {
		return false
	}
	if hc.threshold > 0 && hc.ix.Len() < hc.threshold/2 {
		names, runs := hc.ix.Members()
		cm := NewCohortMatrix(hc.model, hc.workers)
		if err := cm.Reset(names, runs, Options{}); err == nil {
			hc.retireIX()
			hc.cm = cm
		}
	}
	return true
}
