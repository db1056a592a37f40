// Package metricindex accelerates cohort analytics over the run edit
// distance by exploiting that the distance is a true metric (the
// identity/symmetry/triangle properties the differential suite in
// internal/naive verifies). It keeps two summaries per run:
//
//   - distances to m landmark runs chosen by max-min (farthest-point)
//     sampling, giving the triangle-inequality lower bound
//     |d(q,L) - d(x,L)| <= d(q,x) for every landmark L; and
//   - the run's class counts (its nodes per specification node,
//     sptree.Prepared.Size, shared with the run and never copied).
//
// The counts yield two provable lower bounds on the edit distance
// (see bound.go): the histogram bound, the L1 gap of the Q-leaf counts
// scaled by a model-derived rate, and the sharper op-count bound,
// which counts the elementary operations any edit script needs. Bound
// returns the landmark and histogram bounds, a few dozen arithmetic
// operations per pair; Refine adds the op-count bound, one pass over
// the specification tree.
//
// Nearest-neighbor, outlier and clustering queries (internal/cluster's
// Indexed* entry points) consult these bounds before any exact dynamic
// program, so a query over n runs performs O(n) cheap bound
// evaluations but only a handful of exact diffs, taken best-first
// until the bounds rule out the rest — sub-quadratic cohort analytics
// where the dense matrix needs O(n²) diffs up front.
//
// Mutations (Reset, Add, Remove) serialize among themselves and
// publish immutable state, so a Snapshot taken at any moment is
// internally consistent and stays valid however the index changes
// afterwards. Pruned/exact counters are exported for the owning
// analysis.HybridCohort to fold into its own, and the naive-oracle
// differential harness asserts pruned answers are byte-identical to
// exhaustive ones.
//
// The cost model must satisfy the metric conditions of Section III-C.2
// (CheckMetric): triangle pruning is only sound for a true metric.
package metricindex

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/spec"
	"repro/internal/wfrun"
)

// DefaultLandmarks is the landmark count used when Options.Landmarks
// is unset: enough anchors for strong triangle bounds on 10k-run
// cohorts while keeping per-run storage and per-add diff cost O(1).
const DefaultLandmarks = 8

// Options tunes an Index. The zero value means DefaultLandmarks
// anchors and a GOMAXPROCS build fan-out.
type Options struct {
	// Landmarks is the target number of landmark anchors; <= 0 means
	// DefaultLandmarks.
	Landmarks int
	// Workers caps the differencing fan-out of Reset and landmark
	// promotion; <= 0 means GOMAXPROCS (the analysis.HybridCohort
	// default).
	Workers int
}

// anchor is one landmark: a run kept as a pure reference point. An
// anchor survives the removal of its underlying cohort member — the
// stored distances to it remain valid triangle bounds regardless of
// membership — so Remove never recomputes anything.
type anchor struct {
	name string
	run  *wfrun.Run
}

// state is one published, immutable generation of the index: every
// mutation builds fresh rows and swaps the whole struct in, so readers
// holding a *state (via Cohort) never observe partial updates.
type state struct {
	sp     *spec.Spec
	tree   *specTree // sp's flattened tree, shared across states
	rate   float64   // histogram lower-bound rate; 0 disables the bound
	opCost float64   // μ, the op-count bound's price per operation; 0 disables it
	// integral: every exact distance is an integer (see integralModel),
	// so a lower bound may be rounded up to the next one.
	integral bool

	labels  []string
	index   map[string]int
	runs    []*wfrun.Run
	counts  [][]int32   // per run: node counts per spec-node ID (Prepared.Size)
	lm      [][]float64 // lm[i][j] = d(runs[i], anchors[j].run)
	anchors []anchor
	// order lists the members by (distance to anchor 0, index), the
	// order Cohort.Ring walks; empty while there is no anchor.
	order []int32
}

// precedes reports whether member a comes before member b in order.
func (st *state) precedes(a, b int) bool {
	da, db := st.lm[a][0], st.lm[b][0]
	return da < db || (da == db && a < b)
}

// reorder sets st.order to old without member drop (-1 for none),
// renumbering the members after it as the rows were, and with member
// add (-1 for none) inserted at its place: one binary search and one
// copy, never a sort.
func (st *state) reorder(old []int32, drop, add int) {
	st.order = make([]int32, 0, len(st.runs))
	for _, j := range old {
		if drop >= 0 && int(j) >= drop {
			if int(j) == drop {
				continue
			}
			j--
		}
		st.order = append(st.order, j)
	}
	if add >= 0 {
		at := sort.Search(len(st.order), func(p int) bool { return st.precedes(add, int(st.order[p])) })
		st.order = slices.Insert(st.order, at, int32(add))
	}
}

// bounds sets the state's specification and derives its bound inputs.
func (st *state) bounds(m cost.Model, sp *spec.Spec) {
	st.sp = sp
	st.tree = newSpecTree(sp)
	st.rate = costFloor(m, st.tree.maxLen, true)
	st.opCost = costFloor(m, st.tree.maxLen, false)
	st.integral = integralModel(m)
}

// carry copies the per-specification bound inputs of old.
func (st *state) carry(old *state) {
	st.sp, st.tree, st.rate, st.opCost, st.integral = old.sp, old.tree, old.rate, old.opCost, old.integral
}

// lower turns a computed lower bound into the one queries compare:
// slacked for float safety, then, when every exact distance is an
// integer, rounded up, since d ≥ b implies d ≥ ⌈b⌉ for integral d.
// The slack still absorbs float error (the histogram rate 1/Lmax, for
// one) before the rounding, so a bound a few ulps above an integer
// never rounds past it.
func (st *state) lower(b float64) float64 {
	b = loosen(b)
	if st.integral {
		return math.Ceil(b)
	}
	return b
}

// integralModel reports whether every exact distance under m is an
// integer. Under the unit and length models every PathCost is an
// integer, and the engine only sums them and takes minima, all far
// below 2^53, so no float rounding ever leaves the integers. Power,
// Weighted and Func prices are not integers in general.
func integralModel(m cost.Model) bool {
	switch m.(type) {
	case cost.Unit, cost.Length:
		return true
	}
	return false
}

// classCounts returns a run's node counts per specification node,
// preparing the run on first use.
func classCounts(r *wfrun.Run) []int32 {
	p, _ := wfrun.Prepare(r, r)
	return p.Size
}

// Index is an incrementally maintained vantage-point/landmark index
// over the runs of one specification under one cost model.
type Index struct {
	model     cost.Model
	landmarks int
	workers   int

	// computeMu serializes mutations and exact diffs; the engines are
	// owned by whoever holds it.
	computeMu sync.Mutex
	engines   []*core.Engine

	mu sync.RWMutex
	st *state

	exact    atomic.Int64
	pruned   atomic.Int64
	rebuilds atomic.Int64
}

// New returns an empty index for the given cost model.
func New(m cost.Model, opts Options) *Index {
	lm := opts.Landmarks
	if lm <= 0 {
		lm = DefaultLandmarks
	}
	return &Index{
		model:     m,
		landmarks: lm,
		workers:   opts.Workers,
		st:        &state{index: map[string]int{}},
	}
}

// Len returns the current cohort size.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.st.labels)
}

// Labels returns a copy of the cohort's run names in index order.
func (ix *Index) Labels() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]string(nil), ix.st.labels...)
}

// Has reports whether a run name is in the cohort.
func (ix *Index) Has(name string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.st.index[name]
	return ok
}

// Members returns the cohort's names and runs in index order (the runs
// are the shared immutable objects, not copies).
func (ix *Index) Members() ([]string, []*wfrun.Run) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]string(nil), ix.st.labels...), append([]*wfrun.Run(nil), ix.st.runs...)
}

// ExactDiffs reports how many exact engine diffs the index has
// performed since creation — landmark maintenance plus every
// non-pruned candidate of the queries it served.
func (ix *Index) ExactDiffs() int64 { return ix.exact.Load() }

// PrunedPairs reports how many candidate pairs were eliminated by a
// lower bound without an exact diff.
func (ix *Index) PrunedPairs() int64 { return ix.pruned.Load() }

// Rebuilds reports how many full Reset builds the index has performed
// (bulk-import coalescing asserts one per batch).
func (ix *Index) Rebuilds() int64 { return ix.rebuilds.Load() }

// Landmarks reports the current number of landmark anchors.
func (ix *Index) Landmarks() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.st.anchors)
}

// Snapshot returns an immutable view of the current cohort for
// querying, or nil when the cohort is empty. The view stays valid (and
// answers consistently) however the index is mutated afterwards; its
// exact diffs share the index's engine and counters.
func (ix *Index) Snapshot() *Cohort {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.st.labels) == 0 {
		return nil
	}
	return &Cohort{ix: ix, st: ix.st}
}

func (ix *Index) publish(st *state) {
	ix.mu.Lock()
	ix.st = st
	ix.mu.Unlock()
}

// growEngines ensures at least n reusable engines exist. Caller must
// hold computeMu.
func (ix *Index) growEngines(n int) {
	for len(ix.engines) < n {
		ix.engines = append(ix.engines, core.NewEngine(ix.model))
	}
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

func (ix *Index) workerCount(jobs int) int {
	w := ix.workers
	if w <= 0 {
		w = defaultWorkers()
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// validateCohort rejects member lists the index cannot hold: length
// mismatch, duplicate names, nil runs, or runs of mixed specifications.
func validateCohort(names []string, runs []*wfrun.Run) (*spec.Spec, error) {
	if len(names) != len(runs) {
		return nil, fmt.Errorf("metricindex: %d names for %d runs", len(names), len(runs))
	}
	seen := make(map[string]bool, len(names))
	var sp *spec.Spec
	for i, n := range names {
		if seen[n] {
			return nil, fmt.Errorf("metricindex: duplicate run name %q in cohort", n)
		}
		seen[n] = true
		r := runs[i]
		if r == nil || r.Tree == nil {
			return nil, fmt.Errorf("metricindex: nil run %q", n)
		}
		if sp == nil {
			sp = r.Spec
		} else if r.Spec != sp {
			return nil, fmt.Errorf("metricindex: run %q belongs to a different specification", n)
		}
	}
	return sp, nil
}

// Reset replaces the whole cohort: class counts for every run, then
// landmarks chosen by max-min sampling with their distance columns
// computed by a sharded fan-out (m·n exact diffs total — the only
// quadratic-free build cost of the index).
func (ix *Index) Reset(names []string, runs []*wfrun.Run) error {
	sp, err := validateCohort(names, runs)
	if err != nil {
		return err
	}
	ix.computeMu.Lock()
	defer ix.computeMu.Unlock()
	ix.rebuilds.Add(1)

	n := len(runs)
	st := &state{
		sp:     sp,
		labels: append([]string(nil), names...),
		index:  make(map[string]int, n),
		runs:   append([]*wfrun.Run(nil), runs...),
	}
	for i, name := range names {
		st.index[name] = i
	}
	if n == 0 {
		ix.publish(st)
		return nil
	}
	st.bounds(ix.model, sp)
	st.counts = make([][]int32, n)
	for i, r := range runs {
		st.counts[i] = classCounts(r)
	}
	st.lm = make([][]float64, n)
	for i := range st.lm {
		st.lm[i] = make([]float64, 0, ix.landmarks)
	}

	// Max-min landmark selection: the first anchor is item 0; each
	// further anchor is the item farthest (by min distance) from the
	// chosen set, which spreads anchors across the cohort's clusters.
	// Ties break toward lower indices; a max-min gap of zero means the
	// remaining items duplicate existing anchors, so more landmarks
	// cannot improve any bound and selection stops early.
	target := ix.landmarks
	if target > n {
		target = n
	}
	for len(st.anchors) < target {
		pick := 0
		if len(st.anchors) > 0 {
			best := -1.0
			for i := range st.runs {
				min := st.lm[i][0]
				for _, d := range st.lm[i][1:] {
					if d < min {
						min = d
					}
				}
				if min > best {
					best, pick = min, i
				}
			}
			if best <= 0 {
				break
			}
		}
		if err := ix.appendAnchorColumn(st, anchor{name: st.labels[pick], run: st.runs[pick]}); err != nil {
			return err
		}
	}
	ix.publish(st)
	return nil
}

// appendAnchorColumn registers a new landmark and fills every item's
// distance to it with a sharded fan-out. Caller must hold computeMu
// and own st exclusively (rows are extended in place).
func (ix *Index) appendAnchorColumn(st *state, a anchor) error {
	n := len(st.runs)
	col := make([]float64, n)
	workers := ix.workerCount(n)
	ix.growEngines(workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := ix.engines[w]
			for i := w; i < n; i += workers {
				d, err := eng.Distance(st.runs[i], a.run)
				if err != nil {
					errs[w] = fmt.Errorf("metricindex: runs %q and %q: %w", st.labels[i], a.name, err)
					return
				}
				ix.exact.Add(1)
				col[i] = d
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range st.lm {
		st.lm[i] = append(st.lm[i], col[i])
	}
	st.anchors = append(st.anchors, a)
	if len(st.anchors) == 1 {
		st.order = make([]int32, 0, n)
		for i := range st.lm {
			st.order = append(st.order, int32(i))
		}
		sort.Slice(st.order, func(a, b int) bool { return st.precedes(int(st.order[a]), int(st.order[b])) })
	}
	return nil
}

// Add appends a run to the cohort: its class counts plus one exact
// diff per landmark (O(m), not O(n)). While the anchor set is below
// target the new cohort may additionally promote one max-min landmark,
// which costs that landmark's n-diff column — the amortized price of
// building the index incrementally instead of by Reset. If the name is
// already present the old row is replaced.
func (ix *Index) Add(name string, run *wfrun.Run) error {
	if run == nil || run.Tree == nil {
		return fmt.Errorf("metricindex: nil run %q", name)
	}
	ix.computeMu.Lock()
	defer ix.computeMu.Unlock()

	ix.mu.RLock()
	old := ix.st
	ix.mu.RUnlock()

	if old.sp != nil && run.Spec != old.sp {
		return fmt.Errorf("metricindex: run %q belongs to a different specification", name)
	}

	// Copy the surviving rows (dropping a replaced row), then append
	// the new member.
	st := &state{anchors: old.anchors}
	st.carry(old)
	if old.sp == nil {
		st.bounds(ix.model, run.Spec)
	}
	drop := -1
	if i, ok := old.index[name]; ok {
		drop = i
	}
	n := len(old.labels)
	kept := n
	if drop >= 0 {
		kept--
	}
	st.labels = make([]string, 0, kept+1)
	st.runs = make([]*wfrun.Run, 0, kept+1)
	st.counts = make([][]int32, 0, kept+1)
	st.lm = make([][]float64, 0, kept+1)
	for i := 0; i < n; i++ {
		if i == drop {
			continue
		}
		st.labels = append(st.labels, old.labels[i])
		st.runs = append(st.runs, old.runs[i])
		st.counts = append(st.counts, old.counts[i])
		st.lm = append(st.lm, old.lm[i])
	}

	row := make([]float64, len(st.anchors))
	ix.growEngines(1)
	eng := ix.engines[0]
	for j, a := range st.anchors {
		d, err := eng.Distance(run, a.run)
		if err != nil {
			return fmt.Errorf("metricindex: runs %q and %q: %w", name, a.name, err)
		}
		ix.exact.Add(1)
		row[j] = d
	}
	st.labels = append(st.labels, name)
	st.runs = append(st.runs, run)
	st.counts = append(st.counts, classCounts(run))
	st.lm = append(st.lm, row)
	st.index = make(map[string]int, len(st.labels))
	for i, l := range st.labels {
		st.index[l] = i
	}
	if len(st.anchors) > 0 {
		st.reorder(old.order, drop, kept)
	}

	if len(st.anchors) < ix.landmarks && len(st.anchors) < len(st.runs) {
		if err := ix.promote(st); err != nil {
			return err
		}
	}
	ix.publish(st)
	return nil
}

// promote adds the max-min item as a new landmark, copying every row
// first so rows already published under the previous state are never
// extended in place. Caller must hold computeMu.
func (ix *Index) promote(st *state) error {
	pick, best := 0, -1.0
	for i, row := range st.lm {
		min := 0.0
		if len(row) > 0 {
			min = row[0]
			for _, d := range row[1:] {
				if d < min {
					min = d
				}
			}
		}
		if min > best {
			best, pick = min, i
		}
	}
	if best <= 0 && len(st.anchors) > 0 {
		return nil // remaining items duplicate existing anchors
	}
	for i, row := range st.lm {
		st.lm[i] = append(make([]float64, 0, len(row)+1), row...)
	}
	return ix.appendAnchorColumn(st, anchor{name: st.labels[pick], run: st.runs[pick]})
}

// Remove drops a run from the cohort (no differencing at all: anchors
// are reference points, not members, so even a landmark's member row
// can leave without invalidating any stored geometry) and reports
// whether it was present.
func (ix *Index) Remove(name string) bool {
	ix.computeMu.Lock()
	defer ix.computeMu.Unlock()

	ix.mu.RLock()
	old := ix.st
	ix.mu.RUnlock()

	drop, ok := old.index[name]
	if !ok {
		return false
	}
	n := len(old.labels) - 1
	st := &state{
		anchors: old.anchors,
		labels:  make([]string, 0, n),
		runs:    make([]*wfrun.Run, 0, n),
		counts:  make([][]int32, 0, n),
		lm:      make([][]float64, 0, n),
		index:   make(map[string]int, n),
	}
	st.carry(old)
	for i := 0; i <= n; i++ {
		if i == drop {
			continue
		}
		st.labels = append(st.labels, old.labels[i])
		st.runs = append(st.runs, old.runs[i])
		st.counts = append(st.counts, old.counts[i])
		st.lm = append(st.lm, old.lm[i])
	}
	for i, l := range st.labels {
		st.index[l] = i
	}
	st.reorder(old.order, drop, -1)
	ix.publish(st)
	return true
}

// exactDistance performs one counted engine diff. Exact diffs
// serialize on computeMu, so queries and mutations never share an
// engine.
func (ix *Index) exactDistance(r1, r2 *wfrun.Run) (float64, error) {
	ix.computeMu.Lock()
	defer ix.computeMu.Unlock()
	ix.growEngines(1)
	d, err := ix.engines[0].Distance(r1, r2)
	if err == nil {
		ix.exact.Add(1)
	}
	return d, err
}
