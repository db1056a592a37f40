package cluster

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// euclidSpace is a Space over 2-D points: exact distances are
// Euclidean, the lower bound is the triangle gap against point 0 as
// the single landmark. A genuine metric with nontrivial (non-tight)
// bounds, so pruning and exactness are both exercised. Refine returns
// Bound unless sharp is set; then it adds the gap of the second
// coordinate, so the best-first search's refinement step is exercised
// too. Ring hands out every candidate in one batch, as a Space with no
// order does, unless rings is set; then it hands them out one at a
// time.
type euclidSpace struct {
	pts    [][2]float64
	lm     []float64 // distance to point 0
	sharp  bool
	rings  bool
	dcalls int
	pruned int64
}

func newEuclidSpace(pts [][2]float64) *euclidSpace {
	s := &euclidSpace{pts: pts, lm: make([]float64, len(pts))}
	for i := range pts {
		s.lm[i] = euclid(pts[i], pts[0])
	}
	return s
}

func euclid(a, b [2]float64) float64 {
	return math.Hypot(a[0]-b[0], a[1]-b[1])
}

func (s *euclidSpace) Len() int { return len(s.pts) }

// Bound slacks the triangle gap the way metricindex does: the float
// gap can exceed the computed distance by an ulp.
func (s *euclidSpace) Bound(i, j int) float64 {
	if i == j {
		return 0
	}
	return math.Max(0, math.Abs(s.lm[i]-s.lm[j])*(1-1e-9)-1e-9)
}

func (s *euclidSpace) Refine(i, j int) float64 {
	b := s.Bound(i, j)
	if !s.sharp || i == j {
		return b
	}
	return math.Max(b, math.Abs(s.pts[i][1]-s.pts[j][1])*(1-1e-9)-1e-9)
}

// Ring's single-candidate rings come in ascending Bound, equal bounds
// from the highest index down, each with the next candidate's Bound as
// its floor: a floor the next Bound ties, from a lower index, so the
// search must admit that ring before it may stop.
func (s *euclidSpace) Ring(i int, at [2]int, buf []int32) ([]int32, [2]int, float64) {
	var cands []int32
	for j := range s.pts {
		if j != i {
			cands = append(cands, int32(j))
		}
	}
	if !s.rings {
		return append(buf, cands...), at, math.Inf(1)
	}
	sort.Slice(cands, func(a, b int) bool {
		ba, bb := s.Bound(i, int(cands[a])), s.Bound(i, int(cands[b]))
		return ba < bb || (ba == bb && cands[a] > cands[b])
	})
	buf = append(buf, cands[at[0]])
	if at[0]++; at[0] == len(cands) {
		return buf, at, math.Inf(1)
	}
	return buf, at, s.Bound(i, int(cands[at[0]]))
}

func (s *euclidSpace) Distance(i, j int) (float64, error) {
	if i != j {
		s.dcalls++
	}
	return euclid(s.pts[i], s.pts[j]), nil
}

func (s *euclidSpace) Pruned(n int64) { s.pruned += n }

// clusteredPoints draws points around a few well-separated centers.
func clusteredPoints(n int, rng *rand.Rand) [][2]float64 {
	centers := [][2]float64{{0, 0}, {40, 5}, {10, 60}}
	pts := make([][2]float64, n)
	for i := range pts {
		c := centers[rng.Intn(len(centers))]
		pts[i] = [2]float64{c[0] + rng.Float64()*3, c[1] + rng.Float64()*3}
	}
	return pts
}

func denseFrom(t testing.TB, s *euclidSpace) *Matrix {
	n := s.Len()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = euclid(s.pts[i], s.pts[j])
		}
	}
	return mustMatrix(t, d)
}

// optimalDiffs is the fewest exact diffs any bound-only kNN query
// can make: every candidate whose refined (bound, index) is lexicographically
// at most the final k-th neighbor's (distance, index) might belong to
// the answer, so it must be diffed — and never fewer than k.
func optimalDiffs(sp Space, i int, nb []Neighbor) int {
	kth := nb[len(nb)-1]
	must := 0
	for j := 0; j < sp.Len(); j++ {
		if b := sp.Refine(i, j); j != i && (b < kth.Distance || (b == kth.Distance && j <= kth.Index)) {
			must++
		}
	}
	return max(len(nb), must)
}

// TestIndexedNearestMatchesDense: for every query item and several k,
// with and without a sharp Refine and rings, the index-guided kNN
// answer equals Nearest over the dense matrix exactly, while diffing
// exactly the candidates no bound-only search could skip.
func TestIndexedNearestMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := clusteredPoints(40, rng)
	d := denseFrom(t, newEuclidSpace(pts))
	n := len(pts)
	var diffs [2]int // total exact diffs without and with sharp Refine
	for _, k := range []int{1, 3, 7, n - 1} {
		for i := 0; i < 4*n; i++ {
			want, err := Nearest(d, i%n, k)
			if err != nil {
				t.Fatal(err)
			}
			s := newEuclidSpace(pts)
			s.sharp = i/n%2 == 1
			s.rings = i >= 2*n
			got, err := IndexedNearest(s, i%n, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("i=%d k=%d:\n got %v\nwant %v", i, k, got, want)
			}
			// Candidate accounting: every non-query item is either
			// exactly evaluated or counted pruned, never both.
			if s.dcalls+int(s.pruned) != n-1 {
				t.Fatalf("accounting: %d diffs + %d pruned != %d", s.dcalls, s.pruned, n-1)
			}
			if opt := optimalDiffs(s, i%n, got); s.dcalls != opt {
				t.Fatalf("i=%d k=%d: %d exact diffs, the bound-only optimum is %d", i, k, s.dcalls, opt)
			}
			diffs[i/n%2] += s.dcalls
		}
	}
	if diffs[1] >= diffs[0] {
		t.Fatalf("a sharper Refine saved no diffs: %d with, %d without", diffs[1], diffs[0])
	}
	// On a clustered cohort with small k the bounds must actually
	// prune: re-run one query and demand fewer diffs than the full row.
	s := newEuclidSpace(pts)
	if _, err := IndexedNearest(s, 0, 3); err != nil {
		t.Fatal(err)
	}
	if s.dcalls >= n-1 || s.pruned == 0 {
		t.Fatalf("no pruning: %d diffs, %d pruned of %d candidates", s.dcalls, s.pruned, n-1)
	}
}

// TestIndexedOutliersMatchesDense: scores and ranking are
// byte-identical to the dense path; only MeanAll is zero.
func TestIndexedOutliersMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := clusteredPoints(30, rng)
	// One genuine outlier far from every center.
	pts = append(pts, [2]float64{200, 200})
	s := newEuclidSpace(pts)
	d := denseFrom(t, s)
	for _, k := range []int{1, 3, 5} {
		want, err := Outliers(d, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := IndexedOutliers(newEuclidSpace(pts), k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d scores, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Index != want[i].Index || got[i].Score != want[i].Score {
				t.Fatalf("k=%d rank %d: got %+v, want %+v", k, i, got[i], want[i])
			}
			if got[i].MeanAll != 0 {
				t.Fatalf("indexed MeanAll should be 0, got %g", got[i].MeanAll)
			}
		}
		if got[0].Index != len(pts)-1 {
			t.Fatalf("planted outlier not ranked first: %+v", got[0])
		}
	}
}

// tableSpace is a Space over explicit distance and bound tables whose
// candidates come in the rings and with the floors it is given, the
// same for every query.
type tableSpace struct {
	d, lb  [][]float64
	rings  [][]int32
	floors []float64
	dcalls int
}

func (s *tableSpace) Len() int                { return len(s.d) }
func (s *tableSpace) Bound(i, j int) float64  { return s.lb[i][j] }
func (s *tableSpace) Refine(i, j int) float64 { return s.lb[i][j] }
func (s *tableSpace) Pruned(int64)            {}

func (s *tableSpace) Ring(i int, at [2]int, buf []int32) ([]int32, [2]int, float64) {
	return append(buf, s.rings[at[0]]...), [2]int{at[0] + 1}, s.floors[at[0]]
}

func (s *tableSpace) Distance(i, j int) (float64, error) {
	s.dcalls++
	return s.d[i][j], nil
}

// TestIndexedNearestRingTies: the ring floor equals the current k-th
// distance while a candidate of lower index, whose Bound equals that
// floor, is still to come; the search must admit it rather than stop,
// and answer as the dense path does. In the table, item 2 (bound 1) is
// handed out first and diffed at 3, filling the top-1 at the next
// ring's floor 3; that ring's item 1 ties it from a lower index and
// is the answer. On cohorts of points whose duplicates tie at 0, the
// same holds for every query and k.
func TestIndexedNearestRingTies(t *testing.T) {
	s := &tableSpace{
		d:      [][]float64{{0, 3, 3}, {3, 0, 2}, {3, 2, 0}},
		lb:     [][]float64{{0, 3, 1}, {3, 0, 0}, {1, 0, 0}},
		rings:  [][]int32{{2}, {1}},
		floors: []float64{3, math.Inf(1)},
	}
	got, err := IndexedNearest(s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Neighbor{{Index: 1, Distance: 3}}; !reflect.DeepEqual(got, want) || s.dcalls != 2 {
		t.Fatalf("table: got %v after %d diffs, want %v after 2", got, s.dcalls, want)
	}
	for _, pts := range [][][2]float64{
		{{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}},
		{{0, 0}, {1, 0}, {2, 0}, {2, 0}, {3, 0}, {1, 0}, {0, 0}},
		{{0, 0}, {0, 0}},
	} {
		d := denseFrom(t, newEuclidSpace(pts))
		for i := range pts {
			for k := 1; k < len(pts); k++ {
				want, err := Nearest(d, i, k)
				if err != nil {
					t.Fatal(err)
				}
				s := newEuclidSpace(pts)
				s.rings = true
				got, err := IndexedNearest(s, i, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v i=%d k=%d:\n got %v\nwant %v", pts, i, k, got, want)
				}
				if s.dcalls+int(s.pruned) != len(pts)-1 {
					t.Fatalf("accounting: %d diffs + %d pruned != %d", s.dcalls, s.pruned, len(pts)-1)
				}
			}
		}
	}
}

func TestIndexedNearestEdgeCases(t *testing.T) {
	s := newEuclidSpace([][2]float64{{0, 0}, {1, 0}, {5, 0}})
	if _, err := IndexedNearest(newEuclidSpace(nil), 0, 1); err == nil {
		t.Fatal("empty cohort should fail")
	}
	if _, err := IndexedNearest(s, -1, 1); err == nil {
		t.Fatal("negative item should fail")
	}
	if _, err := IndexedNearest(s, 3, 1); err == nil {
		t.Fatal("out-of-range item should fail")
	}
	if nn, err := IndexedNearest(s, 0, 0); err != nil || nn != nil {
		t.Fatalf("k=0: %v %v", nn, err)
	}
	nn, err := IndexedNearest(s, 0, 99)
	if err != nil || len(nn) != 2 {
		t.Fatalf("k clamp: %v %v", nn, err)
	}
	if _, err := IndexedOutliers(newEuclidSpace(nil), 1); err == nil {
		t.Fatal("empty outliers should fail")
	}
	one, err := IndexedOutliers(newEuclidSpace([][2]float64{{0, 0}}), 3)
	if err != nil || len(one) != 1 || one[0].Score != 0 {
		t.Fatalf("singleton outliers: %v %v", one, err)
	}
}

// TestSampledKMedoidsFullSample: with the sample covering the whole
// cohort, the sampled objective must be within 5% of exact full PAM
// (restart 0 runs exact PAM on the full matrix, so in practice it
// matches), deterministic call over call.
func TestSampledKMedoidsFullSample(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := clusteredPoints(30, rng)
	s := newEuclidSpace(pts)
	d := denseFrom(t, s)
	pam, err := KMedoids(d, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SampledKMedoids(context.Background(), s, 3, 11, SampleOptions{SampleSize: len(pts)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost > pam.Cost*1.05+1e-9 {
		t.Fatalf("sampled objective %g not within 5%% of PAM %g", got.Cost, pam.Cost)
	}
	if got.K != 3 || len(got.Medoids) != 3 || len(got.Assign) != len(pts) || got.Silhouette != 0 {
		t.Fatalf("shape: %+v", got)
	}
	if !sortedAscending(got.Medoids) {
		t.Fatalf("medoids not canonical: %v", got.Medoids)
	}
	for c, m := range got.Medoids {
		if got.Assign[m] != c {
			t.Fatalf("medoid %d assigned to %d, not %d", m, got.Assign[m], c)
		}
	}
	again, err := SampledKMedoids(context.Background(), newEuclidSpace(pts), 3, 11, SampleOptions{SampleSize: len(pts)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatalf("nondeterministic:\n%+v\n%+v", got, again)
	}
}

// TestSampledKMedoidsSubsample: a genuine subsample still recovers
// well-separated blobs and reports the exact objective of its medoids.
func TestSampledKMedoidsSubsample(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := clusteredPoints(120, rng)
	s := newEuclidSpace(pts)
	got, err := SampledKMedoids(context.Background(), s, 3, 9, SampleOptions{SampleSize: 60, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Verify the reported cost against an independent recomputation.
	cost := 0.0
	for i := range pts {
		best := math.Inf(1)
		for _, m := range got.Medoids {
			if d := euclid(pts[i], pts[m]); d < best {
				best = d
			}
		}
		cost += best
	}
	if math.Abs(cost-got.Cost) > 1e-9 {
		t.Fatalf("reported cost %g, recomputed %g", got.Cost, cost)
	}
	// Compared against exact PAM on the full matrix the subsampled
	// objective stays close on clearly clustered data.
	pam, err := KMedoids(denseFrom(t, s), 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost > pam.Cost*1.05+1e-9 {
		t.Fatalf("subsampled objective %g strays beyond 5%% of PAM %g", got.Cost, pam.Cost)
	}
}

func TestSampledKMedoidsErrors(t *testing.T) {
	s := newEuclidSpace([][2]float64{{0, 0}, {1, 0}})
	if _, err := SampledKMedoids(context.Background(), newEuclidSpace(nil), 1, 1, SampleOptions{}); err == nil {
		t.Fatal("empty cohort should fail")
	}
	if _, err := SampledKMedoids(context.Background(), s, 0, 1, SampleOptions{}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := SampledKMedoids(context.Background(), s, 3, 1, SampleOptions{}); err == nil {
		t.Fatal("k>n should fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SampledKMedoids(ctx, s, 1, 1, SampleOptions{}); err != context.Canceled {
		t.Fatalf("cancelled context: %v", err)
	}
}

func sortedAscending(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return false
		}
	}
	return true
}

// countdownCtx reports cancellation only after a fixed number of Err
// polls — the instrument for catching mid-computation cancellation
// points without any timing dependence.
type countdownCtx struct {
	context.Context
	polls int
	after int
}

func (c *countdownCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestKMedoidsContextCancelsMidSwap: the regression test for the SWAP
// phase's cancellation point. The context stays live through the
// first medoid row of the first SWAP round and cancels on the next
// poll, so the run must abort mid-SWAP with ctx.Err() — if the poll
// inside the medoid loop is ever removed, the countdown is never
// consumed and the call wrongly succeeds.
func TestKMedoidsContextCancelsMidSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := mustMatrix(t, twoBlobs(14, 6, rng))
	ctx := &countdownCtx{Context: context.Background(), after: 1}
	cl, err := KMedoidsContext(ctx, d, 3, 1)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled mid-SWAP, got cl=%v err=%v", cl, err)
	}
	if ctx.polls < 2 {
		t.Fatalf("SWAP polled the context %d times, expected at least 2", ctx.polls)
	}
	// Same input without cancellation still converges (and KMedoids
	// remains the uncancellable façade over the same implementation).
	if _, err := KMedoids(d, 3, 1); err != nil {
		t.Fatal(err)
	}
}
