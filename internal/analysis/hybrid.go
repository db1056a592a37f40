package analysis

import (
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
	// Landmarks is the metric index's landmark count; <= 0 means
	// metricindex.DefaultLandmarks.
	Landmarks int
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
// published views handed out by View/Snapshot remain immutable and
// survive any later mutation.
type HybridCohort struct {
	model     cost.Model
	workers   int
	threshold int // <= 0: indexing disabled
	landmarks int

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
		landmarks: opts.Landmarks,
		cm:        NewCohortMatrix(m, workers),
	}
}

func (hc *HybridCohort) indexEligible(n int) bool {
	return hc.threshold > 0 && n >= hc.threshold
}

func (hc *HybridCohort) newIndex() *metricindex.Index {
	return metricindex.New(hc.model, metricindex.Options{Landmarks: hc.landmarks, Workers: hc.workers})
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

// Snapshot returns a deep copy of the dense matrix, or nil when the
// cohort is empty or currently indexed. Callers that must have a
// matrix at any size (the ?exact= escape hatch) should compute a
// one-shot DistanceMatrixWith instead.
func (hc *HybridCohort) Snapshot() *Matrix {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	if hc.cm == nil {
		return nil
	}
	return hc.cm.Snapshot()
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
