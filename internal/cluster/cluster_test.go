package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// mustMatrix is NewMatrix for rows a test built valid.
func mustMatrix(t testing.TB, rows [][]float64) *Matrix {
	t.Helper()
	m, err := NewMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// twoBlobs builds a distance matrix of two well-separated groups:
// items [0, split) are mutually close, items [split, n) are mutually
// close, and cross-group distances are large.
func twoBlobs(n, split int, rng *rand.Rand) [][]float64 {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var v float64
			if (i < split) == (j < split) {
				v = 1 + rng.Float64()
			} else {
				v = 50 + rng.Float64()
			}
			d[i][j], d[j][i] = v, v
		}
	}
	return d
}

func TestKMedoidsRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := mustMatrix(t, twoBlobs(12, 5, rng))
	cl, err := KMedoids(d, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cl.K != 2 || len(cl.Medoids) != 2 || len(cl.Assign) != 12 {
		t.Fatalf("shape: %+v", cl)
	}
	// All of group 1 shares a cluster, all of group 2 shares the other.
	for i := 1; i < 5; i++ {
		if cl.Assign[i] != cl.Assign[0] {
			t.Fatalf("item %d not with its blob: %v", i, cl.Assign)
		}
	}
	for i := 6; i < 12; i++ {
		if cl.Assign[i] != cl.Assign[5] {
			t.Fatalf("item %d not with its blob: %v", i, cl.Assign)
		}
	}
	if cl.Assign[0] == cl.Assign[5] {
		t.Fatalf("blobs merged: %v", cl.Assign)
	}
	// Medoids are sorted and belong to their own clusters.
	if cl.Medoids[0] >= cl.Medoids[1] {
		t.Fatalf("medoids not sorted: %v", cl.Medoids)
	}
	for c, m := range cl.Medoids {
		if cl.Assign[m] != c {
			t.Fatalf("medoid %d assigned to cluster %d, not %d", m, cl.Assign[m], c)
		}
	}
	if cl.Silhouette < 0.8 {
		t.Fatalf("well-separated blobs should have high silhouette, got %g", cl.Silhouette)
	}
}

// TestKMedoidsDeterministic: identical inputs and seed produce
// identical clusterings, call after call.
func TestKMedoidsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := mustMatrix(t, twoBlobs(16, 7, rng))
	first, err := KMedoids(d, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := KMedoids(d, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\n%+v\n%+v", i, first, again)
		}
	}
}

func TestKMedoidsDegenerate(t *testing.T) {
	// k = n: every item its own medoid, zero cost.
	d := mustMatrix(t, twoBlobs(4, 2, rand.New(rand.NewSource(3))))
	cl, err := KMedoids(d, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Cost != 0 {
		t.Fatalf("k=n cost = %g, want 0", cl.Cost)
	}
	if !reflect.DeepEqual(cl.Medoids, []int{0, 1, 2, 3}) {
		t.Fatalf("medoids = %v", cl.Medoids)
	}
	// k = 1: the single medoid is the global medoid.
	cl1, err := KMedoids(d, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl1.Medoids) != 1 || cl1.Silhouette != 0 {
		t.Fatalf("k=1: %+v", cl1)
	}
	// Identical items (all-zero matrix) must still terminate.
	zero := make([][]float64, 3)
	for i := range zero {
		zero[i] = make([]float64, 3)
	}
	if _, err := KMedoids(mustMatrix(t, zero), 2, 5); err != nil {
		t.Fatal(err)
	}
	// Invalid inputs.
	if _, err := KMedoids(d, 0, 1); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := KMedoids(d, 5, 1); err == nil {
		t.Fatal("k>n must error")
	}
	if _, err := KMedoids(&Matrix{}, 1, 1); err == nil {
		t.Fatal("empty matrix must error")
	}
}

// TestKMedoidsImprovesOnInit: SWAP must reach the optimal medoid pair
// on a configuration where greedy init alone is suboptimal.
func TestKMedoidsObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := mustMatrix(t, twoBlobs(10, 5, rng))
	cl, err := KMedoids(d, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive check: no medoid pair beats the PAM result.
	n := d.Len()
	bestCost := math.Inf(1)
	assign := make([]int, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if c := assignAll(d, []int{a, b}, assign); c < bestCost {
				bestCost = c
			}
		}
	}
	if cl.Cost > bestCost+1e-9 {
		t.Fatalf("PAM cost %g worse than exhaustive optimum %g", cl.Cost, bestCost)
	}
}

func TestOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Two tight blobs plus one far-away item: total-distance ranking
	// would also flag blob members of the smaller blob; knn scoring
	// must single out item 8.
	rows := twoBlobs(8, 4, rng)
	n := 9
	for i := range rows {
		rows[i] = append(rows[i], 500)
	}
	last := make([]float64, n)
	for j := 0; j < n-1; j++ {
		last[j] = 500
	}
	d := mustMatrix(t, append(rows, last))
	scores, err := Outliers(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != n {
		t.Fatalf("got %d scores", len(scores))
	}
	if scores[0].Index != 8 {
		t.Fatalf("top outlier = %+v, want item 8", scores[0])
	}
	if scores[0].Score < 100*scores[1].Score {
		t.Fatalf("outlier not separated: %+v vs %+v", scores[0], scores[1])
	}
	// Scores are sorted descending.
	for i := 1; i < len(scores); i++ {
		if scores[i].Score > scores[i-1].Score {
			t.Fatalf("scores unsorted at %d: %+v", i, scores)
		}
	}
	// k clamping: k far beyond n must not panic and equals mean-all.
	wide, err := Outliers(d, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range wide {
		if math.Abs(s.Score-s.MeanAll) > 1e-9 {
			t.Fatalf("k>=n-1 score %g != mean %g", s.Score, s.MeanAll)
		}
	}
	one, err := Outliers(mustMatrix(t, [][]float64{{0}}), 3)
	if err != nil || len(one) != 1 || one[0].Score != 0 {
		t.Fatalf("singleton: %v %v", one, err)
	}
}

func TestNearest(t *testing.T) {
	d := mustMatrix(t, [][]float64{
		{0, 1, 4, 2},
		{1, 0, 5, 3},
		{4, 5, 0, 6},
		{2, 3, 6, 0},
	})
	nn, err := Nearest(d, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Neighbor{{Index: 1, Distance: 1}, {Index: 3, Distance: 2}}
	if !reflect.DeepEqual(nn, want) {
		t.Fatalf("nearest = %v, want %v", nn, want)
	}
	// k clamps to n-1; k <= 0 yields nothing; bad index errors.
	all, err := Nearest(d, 2, 99)
	if err != nil || len(all) != 3 {
		t.Fatalf("clamped: %v %v", all, err)
	}
	none, err := Nearest(d, 1, 0)
	if err != nil || none != nil {
		t.Fatalf("k=0: %v %v", none, err)
	}
	if _, err := Nearest(d, 7, 1); err == nil {
		t.Fatal("out-of-range index must error")
	}
	// Equal distances break ties toward lower indices.
	tie := mustMatrix(t, [][]float64{{0, 2, 2}, {2, 0, 2}, {2, 2, 0}})
	nt, err := Nearest(tie, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if nt[0].Index != 0 || nt[1].Index != 1 {
		t.Fatalf("tie order: %v", nt)
	}
}

// TestKMedoidsIdenticalItemsSilhouette: over duplicate items every
// distance ties at 0, so ties put every item in the first medoid's
// cluster and the other cluster is empty. Such an item has no other
// cluster to compare against and scores 0, as a singleton does; the
// mean must not become NaN.
func TestKMedoidsIdenticalItemsSilhouette(t *testing.T) {
	zero := mustMatrix(t, [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}})
	cl, err := KMedoids(zero, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(cl.Silhouette) || math.IsInf(cl.Silhouette, 0) || cl.Silhouette != 0 {
		t.Fatalf("silhouette over identical items = %g, want 0", cl.Silhouette)
	}
	if cl.Cost != 0 || len(cl.Medoids) != 2 {
		t.Fatalf("clustering of identical items: %+v", cl)
	}
}

// TestValidateMatrixMessages: NewMatrix refuses each kind of bad
// matrix with the message of the first bad entry in row-major order, as
// the check of every (i, j) pair reported it, although symmetry is
// checked from the upper triangle only. With checks only the row it
// adds.
func TestValidateMatrixMessages(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		d    [][]float64
		want string
	}{
		{"empty", nil, "cluster: empty distance matrix"},
		{"row length", [][]float64{{0, 1}, {1}}, "cluster: row 1 has 1 entries in a 2-item matrix"},
		{"short later row", [][]float64{{0, 1, 2}, {1, 0, 3}, {2}}, "cluster: row 2 has 1 entries in a 3-item matrix"},
		{"self-distance", [][]float64{{0, 1}, {1, 2}}, "cluster: nonzero self-distance 2 at 1"},
		{"NaN", [][]float64{{0, nan}, {nan, 0}}, "cluster: invalid distance NaN at (0,1)"},
		{"NaN lower triangle", [][]float64{{0, 1, 2}, {1, 0, 3}, {2, nan, 0}}, "cluster: invalid distance NaN at (2,1)"},
		{"negative", [][]float64{{0, 1, 2}, {1, 0, -3}, {2, -3, 0}}, "cluster: invalid distance -3 at (1,2)"},
		{"asymmetric", [][]float64{{0, 1, 2}, {1, 0, 3}, {2, 4, 0}}, "cluster: asymmetric matrix: d[1][2]=3, d[2][1]=4"},
		{"asymmetric before negative", [][]float64{{0, 1, 5}, {1, 0, -1}, {2, -1, 0}}, "cluster: asymmetric matrix: d[0][2]=5, d[2][0]=2"},
	} {
		m, err := NewMatrix(tc.d)
		if m != nil || err == nil || err.Error() != tc.want {
			t.Errorf("%s: NewMatrix = %v, %v, want %q", tc.name, m, err, tc.want)
		}
		if tc.name == "short later row" {
			continue // the every-pair check indexes the short row out of range
		}
		if old := oracleValidate(tc.d); old == nil || old.Error() != tc.want {
			t.Errorf("%s: every-pair check = %v, want %q", tc.name, old, tc.want)
		}
	}
	if _, err := NewMatrix([][]float64{{0, 1}, {1 + 1e-12, 0}}); err != nil {
		t.Errorf("asymmetry within tolerance refused: %v", err)
	}

	m := mustMatrix(t, [][]float64{{0, 1}, {1, 0}})
	for _, tc := range []struct {
		name string
		row  []float64
		want string
	}{
		{"short row", []float64{1}, "cluster: new row has 1 entries in a 2-item matrix"},
		{"NaN", []float64{1, nan}, "cluster: invalid distance NaN at (2,1)"},
		{"negative", []float64{-2, 1}, "cluster: invalid distance -2 at (2,0)"},
	} {
		got, err := m.With(tc.row)
		if got != nil || err == nil || err.Error() != tc.want {
			t.Errorf("With(%s) = %v, %v, want %q", tc.name, got, err, tc.want)
		}
	}
}

// TestMatrixWithWithout: growing a matrix item by item with With and
// dropping items with Without gives the matrix NewMatrix builds from
// the same rows, and never writes to the matrix it started from.
func TestMatrixWithWithout(t *testing.T) {
	rows := twoBlobs(6, 3, rand.New(rand.NewSource(9)))
	full := mustMatrix(t, rows)
	m := &Matrix{}
	for i := range rows {
		var err error
		if m, err = m.With(rows[i][:i]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(m, full) {
		t.Fatalf("grown matrix %v, want %v", m, full)
	}
	kept := [][]float64{}
	for _, i := range []int{0, 2, 3, 5} {
		var row []float64
		for _, j := range []int{0, 2, 3, 5} {
			row = append(row, rows[i][j])
		}
		kept = append(kept, row)
	}
	if got := full.Without(4).Without(1); !reflect.DeepEqual(got, mustMatrix(t, kept)) {
		t.Fatalf("Without(4).Without(1) = %v, want %v", got, kept)
	}
	if !reflect.DeepEqual(full, mustMatrix(t, rows)) {
		t.Fatal("With or Without wrote to the matrix it started from")
	}
	perm := []int{5, 0, 3, 1, 4, 2}
	p := full.Permute(perm)
	for i, pi := range perm {
		for j, pj := range perm {
			if p.At(i, j) != full.At(pi, pj) {
				t.Fatalf("Permute: (%d,%d) = %g, want %g", i, j, p.At(i, j), full.At(pi, pj))
			}
		}
	}
}
