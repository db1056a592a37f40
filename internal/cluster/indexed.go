package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Space is a metric cohort answering queries through lower bounds: the
// contract internal/metricindex's Cohort satisfies. Bound and Refine
// must never exceed Distance (after the implementation's own float
// slack), and Distance must agree bitwise with the distances a dense
// matrix of the same cohort would hold — that is what lets the
// Indexed* queries return byte-identical answers to their matrix
// counterparts while skipping most exact evaluations. A bound may be
// rounded up to the next value Distance can take (metricindex rounds
// to the integers under the unit and length models); a bound equal to
// a distance already found then lets the queries' tie rules prune
// without a diff. Bound is the cheap bound a query evaluates against
// each candidate it admits; Refine is a sharper, dearer one, never
// below Bound, that a kNN query asks for only when a candidate reaches
// the front of its search (an implementation without one returns
// Bound). Ring hands a kNN query for item i its candidates, every item
// but i once, in batches: from cursor at (the zero value at the start)
// it appends the next batch to buf and returns it, the advanced cursor
// and a floor no later candidate's Bound is below, +Inf once none
// remain; an implementation with no order hands out all of them in
// one batch. Pruned receives the count of candidate pairs a query
// eliminated without calling Distance, for the implementation's
// instrumentation.
type Space interface {
	Len() int
	Bound(i, j int) float64
	Refine(i, j int) float64
	Ring(i int, at [2]int, buf []int32) ([]int32, [2]int, float64)
	Distance(i, j int) (float64, error)
	Pruned(n int64)
}

// knnState is the current top-k of one nearest-neighbor query, kept
// ascending by (distance, index) — exactly the order Nearest sorts by,
// so the final slice is the dense answer verbatim.
type knnState struct {
	top []Neighbor
	k   int
}

func (s *knnState) full() bool { return len(s.top) == s.k }

func (s *knnState) worst() Neighbor { return s.top[len(s.top)-1] }

// prunable reports whether a candidate with lower bound lb can be
// discarded: with a full top-k of worst entry (wd, wi), the candidate
// j's true pair (d_j, j) is lexicographically ≥ (lb, j); when that is
// strictly beyond (wd, wi) the candidate can never enter the final
// top-k (indices are unique, so the comparison is strict whenever
// lb > wd, or lb == wd with j on the far side of wi). The tie case is
// what integral bounds feed: a slacked bound sits just below the
// distance it matches and never ties it, a rounded one equals it.
func (s *knnState) prunable(lb float64, j int) bool {
	if !s.full() {
		return false
	}
	w := s.worst()
	return lb > w.Distance || (lb == w.Distance && j > w.Index)
}

func (s *knnState) add(d float64, j int) {
	nb := Neighbor{Index: j, Distance: d}
	if s.full() {
		if w := s.worst(); nb.Distance > w.Distance || (nb.Distance == w.Distance && nb.Index > w.Index) {
			return
		}
		s.top = s.top[:len(s.top)-1]
	}
	at := sort.Search(len(s.top), func(p int) bool {
		t := s.top[p]
		return t.Distance > nb.Distance || (t.Distance == nb.Distance && t.Index > nb.Index)
	})
	s.top = append(s.top, Neighbor{})
	copy(s.top[at+1:], s.top[at:])
	s.top[at] = nb
}

// candidate is one kNN candidate with its lower bound to the query;
// refined marks a bound that already includes Space.Refine. A 32-bit
// index keeps the candidate at 16 bytes, so a 10k-run query's heap
// takes 160 KB.
type candidate struct {
	lb      float64
	j       int32
	refined bool
}

// before orders candidates by (bound, index), the order the search
// takes them in.
func (a candidate) before(b candidate) bool {
	return a.lb < b.lb || (a.lb == b.lb && a.j < b.j)
}

// candHeap is a binary min-heap of candidates under before.
type candHeap []candidate

// up restores the heap order above position at.
func (h candHeap) up(at int) {
	for at > 0 {
		p := (at - 1) / 2
		if !h[at].before(h[p]) {
			return
		}
		h[at], h[p] = h[p], h[at]
		at = p
	}
}

// down restores the heap order below position at.
func (h candHeap) down(at int) {
	for {
		c := 2*at + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[at]) {
			return
		}
		h[at], h[c] = h[c], h[at]
		at = c
	}
}

// indexedNearest answers one kNN query over sp best-first, in the
// manner of Hjaltason & Samet's incremental search (TODS 2003): the
// candidates sp.Ring hands out are bounded and heaped by (bound,
// index). While the heap's minimum lies below the floor of the
// candidates not yet handed out, it is the minimum of them all: the
// search pops it, and a candidate not yet refined gets Refine and goes
// back into the heap if its bound rose, while a refined one (or one
// Refine could not raise) is diffed. The first such minimum prunable
// against the running top-k ends the query, as does a floor past the
// k-th distance — every candidate left is lexicographically further.
// Otherwise the next batch is admitted: the pivot-table search of
// Chávez et al. (ACM Computing Surveys 2001), which bounds only the
// candidates near the query's pivot distance. Popped bounds never
// decrease, so the query diffs exactly the candidates whose refined
// (bound, index) precedes the final k-th neighbor, beyond the first
// k: no search that sees only these bounds diffs fewer. sc's buffers
// (capacity n-1) are reused across the queries of an outlier scan. k
// must already be clamped to [1, n-1].
func indexedNearest(sp Space, i, k int, sc *knnScratch) ([]Neighbor, error) {
	h := candHeap(sc.heap[:0])
	st := &knnState{top: make([]Neighbor, 0, k), k: k}
	var at [2]int
	floor, diffed := math.Inf(-1), 0
	for {
		if len(h) == 0 || h[0].lb >= floor && !math.IsInf(floor, 1) {
			if math.IsInf(floor, 1) || st.full() && floor > st.worst().Distance {
				break
			}
			sc.ring, at, floor = sp.Ring(i, at, sc.ring[:0])
			for _, j := range sc.ring {
				h = append(h, candidate{lb: sp.Bound(i, int(j)), j: j})
				h.up(len(h) - 1)
			}
			continue
		}
		c := h[0]
		j := int(c.j)
		if st.prunable(c.lb, j) {
			break
		}
		if !c.refined {
			if r := sp.Refine(i, j); r > c.lb {
				h[0] = candidate{lb: r, j: c.j, refined: true}
				h.down(0)
				continue
			}
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		h.down(0)
		d, err := sp.Distance(i, j)
		if err != nil {
			return nil, err
		}
		diffed++
		st.add(d, j)
	}
	sp.Pruned(int64(sp.Len() - 1 - diffed))
	return st.top, nil
}

// knnScratch is the reusable storage of kNN queries over n items: the
// candidate heap and the ring buffer, each of capacity n-1.
type knnScratch struct {
	heap []candidate
	ring []int32
}

func newKNNScratch(n int) *knnScratch {
	return &knnScratch{heap: make([]candidate, 0, n-1), ring: make([]int32, 0, n-1)}
}

// IndexedNearest answers Nearest over a metric index view instead of a
// dense matrix: the k items closest to item i, ascending by distance
// with ties toward lower indices, byte-identical to the dense answer.
// Candidates whose lower bound already places them beyond the running
// k-th neighbor are never exactly diffed. k is clamped to [0, n-1].
func IndexedNearest(sp Space, i, k int) ([]Neighbor, error) {
	n := sp.Len()
	if n == 0 {
		return nil, fmt.Errorf("cluster: empty cohort")
	}
	if i < 0 || i >= n {
		return nil, fmt.Errorf("cluster: item %d outside cohort of %d items", i, n)
	}
	if k > n-1 {
		k = n - 1
	}
	if k <= 0 {
		return nil, nil
	}
	sc, _ := scratch.Get().(*knnScratch)
	if sc == nil || cap(sc.heap) < n-1 {
		sc = newKNNScratch(n)
	}
	defer scratch.Put(sc)
	return indexedNearest(sp, i, k, sc)
}

// scratch recycles IndexedNearest's buffers (20 bytes per cohort
// member) across queries; the answer never aliases one.
var scratch sync.Pool

// IndexedOutliers answers Outliers over a metric index view: every
// item scored by mean distance to its k nearest neighbors, sorted
// most-anomalous first. Scores and order are byte-identical to the
// dense path (the k nearest distances are summed in the same ascending
// order); only MeanAll, which would force all n-1 exact distances per
// item, is left zero. k is clamped to [1, n-1]; a single-item cohort
// yields one zero score.
func IndexedOutliers(sp Space, k int) ([]OutlierScore, error) {
	n := sp.Len()
	if n == 0 {
		return nil, fmt.Errorf("cluster: empty cohort")
	}
	if n == 1 {
		return []OutlierScore{{Index: 0}}, nil
	}
	if k < 1 {
		k = 1
	}
	if k > n-1 {
		k = n - 1
	}
	out := make([]OutlierScore, n)
	sc := newKNNScratch(n)
	for i := 0; i < n; i++ {
		nb, err := indexedNearest(sp, i, k, sc)
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, v := range nb {
			sum += v.Distance
		}
		out[i] = OutlierScore{Index: i, Score: sum / float64(k)}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Index < out[b].Index
	})
	return out, nil
}

// SampleOptions tunes SampledKMedoids. The zero value picks a sample
// of min(n, 40+2k) items (the classic CLARA sizing) and 2 restarts.
type SampleOptions struct {
	// SampleSize is the number of items PAM runs on per restart;
	// <= 0 means min(n, 40+2k).
	SampleSize int
	// Restarts is the number of independent samples tried; <= 0
	// means 2. The restart with the lowest exact full-cohort objective
	// wins.
	Restarts int
}

// SampledKMedoids clusters a cohort without a full distance matrix, in
// the CLARA/CLARANS tradition: each restart draws a deterministic
// random sample, runs exact PAM on the sample's (memoized) distance
// submatrix, then assigns the whole cohort to the sample's medoids
// with bound-guided pruning — per item, candidate medoids are tried in
// ascending-bound order and abandoned once a bound exceeds the best
// exact distance so far. The restart whose full-cohort objective is
// lowest wins. Cost is the exact PAM objective of the returned
// medoids; Silhouette is reported as 0 (it would need all pairwise
// distances, which is the matrix this function exists to avoid).
// Results are deterministic for a fixed seed.
func SampledKMedoids(ctx context.Context, sp Space, k int, seed int64, opts SampleOptions) (*Clustering, error) {
	n := sp.Len()
	if n == 0 {
		return nil, fmt.Errorf("cluster: empty cohort")
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("cluster: k=%d outside [1, %d]", k, n)
	}
	s := opts.SampleSize
	if s <= 0 {
		s = 40 + 2*k
	}
	if s > n {
		s = n
	}
	if s < k {
		s = k
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 2
	}

	// memo holds exact distances across restarts keyed by ordered pair,
	// so overlapping samples and repeated medoids never re-diff.
	memo := map[[2]int]float64{}
	dist := func(i, j int) (float64, error) {
		if i == j {
			return 0, nil
		}
		key := [2]int{i, j}
		if i > j {
			key = [2]int{j, i}
		}
		if d, ok := memo[key]; ok {
			return d, nil
		}
		d, err := sp.Distance(i, j)
		if err != nil {
			return 0, err
		}
		memo[key] = d
		return d, nil
	}

	var best *Clustering
	for r := 0; r < restarts; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + int64(r)))
		var sample []int
		if s == n {
			sample = make([]int, n)
			for i := range sample {
				sample[i] = i
			}
		} else {
			sample = append([]int(nil), rng.Perm(n)[:s]...)
			sort.Ints(sample)
		}

		sub := make([][]float64, s)
		for a := range sub {
			sub[a] = make([]float64, s)
		}
		for a := 0; a < s; a++ {
			for b := a + 1; b < s; b++ {
				d, err := dist(sample[a], sample[b])
				if err != nil {
					return nil, err
				}
				sub[a][b], sub[b][a] = d, d
			}
		}
		cl, err := KMedoidsContext(ctx, sub, k, seed+int64(r))
		if err != nil {
			return nil, err
		}
		medoids := make([]int, k)
		for c, m := range cl.Medoids {
			medoids[c] = sample[m]
		}

		assign := make([]int, n)
		cost := 0.0
		for i := 0; i < n; i++ {
			if i%256 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			d, c, err := nearestMedoid(sp, dist, medoids, i)
			if err != nil {
				return nil, err
			}
			assign[i] = c
			cost += d
		}
		if best == nil || cost < best.Cost {
			best = &Clustering{
				K:          k,
				Medoids:    medoids,
				Assign:     assign,
				Cost:       cost,
				Iterations: cl.Iterations,
			}
		}
	}
	best.Medoids, best.Assign = canonicalClusters(best.Medoids, best.Assign)
	return best, nil
}

// nearestMedoid finds item i's closest medoid exactly while pruning:
// medoids are tried in ascending lower-bound order and the scan stops
// once the next medoid cannot win: its bound exceeds the best exact
// distance found, or equals it from a later list position (the stable
// sort keeps equal bounds in list order, so every medoid after it is
// out too). Ties on exact distance resolve toward the earlier medoid
// in the list, matching assignAll.
func nearestMedoid(sp Space, dist func(int, int) (float64, error), medoids []int, i int) (float64, int, error) {
	type cand struct {
		c  int // medoid list position
		lb float64
	}
	cands := make([]cand, len(medoids))
	for c, m := range medoids {
		cands[c] = cand{c: c, lb: sp.Bound(i, m)}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].lb < cands[b].lb })
	bestD, bestC := math.Inf(1), -1
	for at, cd := range cands {
		if bestC >= 0 && (cd.lb > bestD || (cd.lb == bestD && cd.c > bestC)) {
			sp.Pruned(int64(len(cands) - at))
			break
		}
		d, err := dist(i, medoids[cd.c])
		if err != nil {
			return 0, 0, err
		}
		if d < bestD || (d == bestD && cd.c < bestC) {
			bestD, bestC = d, cd.c
		}
	}
	return bestD, bestC, nil
}
