package analysis

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/fixtures"
	"repro/internal/gen"
	"repro/internal/wfrun"
)

func cohort(t *testing.T, n int, seed int64) []*wfrun.Run {
	t.Helper()
	sp := fixtures.Fig2SpecWithLoop()
	rng := rand.New(rand.NewSource(seed))
	runs := make([]*wfrun.Run, n)
	for i := range runs {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}
	return runs
}

func TestDistanceMatrixProperties(t *testing.T) {
	runs := cohort(t, 6, 1)
	mx, err := DistanceMatrix(runs, nil, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(runs)
	for i := 0; i < n; i++ {
		if mx.D.At(i, i) != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
		for j := 0; j < n; j++ {
			if mx.D.At(i, j) != mx.D.At(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
			if mx.D.At(i, j) < 0 {
				t.Fatalf("negative distance at (%d,%d)", i, j)
			}
		}
	}
	out := mx.String()
	if !strings.Contains(out, "r0") || !strings.Contains(out, "r5") {
		t.Fatalf("labels missing:\n%s", out)
	}
}

func TestDistanceMatrixErrors(t *testing.T) {
	if _, err := DistanceMatrix(nil, nil, cost.Unit{}); err == nil {
		t.Fatal("empty cohort must fail")
	}
	runs := cohort(t, 2, 2)
	if _, err := DistanceMatrix(runs, []string{"only-one"}, cost.Unit{}); err == nil {
		t.Fatal("label count mismatch must fail")
	}
	spA := fixtures.Fig2Spec()
	spB := fixtures.Fig2Spec()
	mixed := []*wfrun.Run{fixtures.Fig2R1(spA), fixtures.Fig2R2(spB)}
	if _, err := DistanceMatrix(mixed, nil, cost.Unit{}); err == nil {
		t.Fatal("mixed specifications must fail")
	}
}

// TestMedoidAndOutlier: the cohort statistics the service reports
// come from internal/cluster over the matrix DistanceMatrix builds.
func TestMedoidAndOutlier(t *testing.T) {
	// Three identical runs plus one very different run: the outlier
	// must be the different one, the medoid one of the identical.
	sp := fixtures.Fig2Spec()
	same1 := fixtures.Fig2R1(sp)
	same2 := fixtures.Fig2R1(sp)
	same3 := fixtures.Fig2R1(sp)
	diff := fixtures.Fig2R2(sp)
	mx, err := DistanceMatrix([]*wfrun.Run{same1, same2, diff, same3}, nil, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := cluster.Outliers(mx.D, 3)
	if err != nil || scores[0].Index != 2 {
		t.Fatalf("outlier = %v (%v), want 2\n%s", scores, err, mx)
	}
	if got := cluster.Medoid(mx.D); got == 2 {
		t.Fatalf("medoid must not be the outlier\n%s", mx)
	}
	if nn, err := cluster.Nearest(mx.D, 0, 1); err != nil || nn[0].Distance != 0 || (nn[0].Index != 1 && nn[0].Index != 3) {
		t.Fatalf("nearest(0) = %v, %v", nn, err)
	}
}

func TestClusterSeparatesGroups(t *testing.T) {
	sp := fixtures.Fig2Spec()
	runs := []*wfrun.Run{
		fixtures.Fig2R1(sp), fixtures.Fig2R1(sp), // group A
		fixtures.Fig2R2(sp), fixtures.Fig2R2(sp), // group B
	}
	mx, err := DistanceMatrix(runs, []string{"a1", "a2", "b1", "b2"}, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	root := mx.Cluster()
	if root == nil {
		t.Fatal("no dendrogram")
	}
	leaves := root.Leaves()
	if len(leaves) != 4 {
		t.Fatalf("leaves = %v", leaves)
	}
	// The root's two subtrees are the two groups: each pair merges at
	// distance 0, below the root's merge.
	for _, sub := range []*Dendrogram{root.Left, root.Right} {
		c := sub.Leaves()
		sort.Ints(c)
		if len(c) != 2 || c[0]/2 != c[1]/2 || sub.Height != 0 {
			t.Fatalf("subtree %v at height %g, want one group merged at 0", c, sub.Height)
		}
	}
	text := root.Render()
	for _, l := range []string{"a1", "b2", "merged at distance"} {
		if !strings.Contains(text, l) {
			t.Fatalf("dendrogram missing %q:\n%s", l, text)
		}
	}
}

func TestClusterSingleRun(t *testing.T) {
	sp := fixtures.Fig2Spec()
	mx, err := DistanceMatrix([]*wfrun.Run{fixtures.Fig2R1(sp)}, nil, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	root := mx.Cluster()
	if root == nil || root.Run != 0 {
		t.Fatalf("single-run dendrogram should be the leaf itself, got %+v", root)
	}
}

// TestDistanceMatrixProgress checks the per-pair progress callback:
// monotone completed counts, the right total, and a final done==total
// event, with the matrix identical to the callback-free path.
func TestDistanceMatrixProgress(t *testing.T) {
	runs := cohort(t, 5, 3)
	total := len(runs) * (len(runs) - 1) / 2
	var events [][2]int
	withProcs(t, 3)
	mx, err := DistanceMatrixWith(runs, nil, cost.Unit{}, Options{
		Progress: func(done, tot int) {
			events = append(events, [2]int{done, tot})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != total {
		t.Fatalf("got %d progress events, want %d", len(events), total)
	}
	for i, ev := range events {
		if ev[0] != i+1 || ev[1] != total {
			t.Fatalf("event %d = %v, want {%d %d}", i, ev, i+1, total)
		}
	}
	plain, err := DistanceMatrix(runs, nil, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.D.Len() {
		for j := range plain.D.Len() {
			if mx.D.At(i, j) != plain.D.At(i, j) {
				t.Fatalf("matrix differs at %d,%d", i, j)
			}
		}
	}
}
