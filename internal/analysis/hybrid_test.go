package analysis

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/wfrun"
)

// hybridRuns generates n runs of one random-but-fixed specification
// (cohortRuns caps at 26 names; the hybrid tests cross thresholds).
func hybridRuns(t testing.TB, n int) ([]string, []*wfrun.Run) {
	t.Helper()
	rng := rand.New(rand.NewSource(123))
	sp, err := gen.RandomSpec(gen.SpecConfig{Edges: 10, SeriesRatio: 1, Forks: 2, Loops: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	runs := make([]*wfrun.Run, n)
	for i := range runs {
		names[i] = fmt.Sprintf("r%02d", i)
		if runs[i], err = gen.RandomRun(sp, gen.DefaultRunParams(), rng); err != nil {
			t.Fatal(err)
		}
	}
	return names, runs
}

// TestHybridSwitchesUpAndDown: steady Adds cross the threshold into
// the index, Removes cross back below half the threshold into the
// dense matrix, and the cumulative counters survive both switches.
func TestHybridSwitchesUpAndDown(t *testing.T) {
	names, runs := hybridRuns(t, 10)
	hc := NewHybridCohort(cost.Unit{}, 2, HybridOptions{IndexThreshold: 6})
	for i := 0; i < 5; i++ {
		if err := hc.Add(names[i], runs[i]); err != nil {
			t.Fatal(err)
		}
		if hc.Indexed() {
			t.Fatalf("indexed at %d runs, threshold 6", hc.Len())
		}
	}
	denseDiffs := hc.DiffCalls()
	if denseDiffs == 0 {
		t.Fatal("dense phase recorded no diffs")
	}
	if v := hc.View(); v.Indexed() || v.Len() != 5 || v.Matrix == nil {
		t.Fatalf("dense view: %+v", v)
	}

	// The sixth Add re-homes the cohort into the index.
	if err := hc.Add(names[5], runs[5]); err != nil {
		t.Fatal(err)
	}
	if !hc.Indexed() || hc.Len() != 6 {
		t.Fatalf("not indexed at threshold: indexed=%v len=%d", hc.Indexed(), hc.Len())
	}
	if hc.DiffCalls() < denseDiffs {
		t.Fatalf("diff counter went backwards across switch-up: %d -> %d", denseDiffs, hc.DiffCalls())
	}
	if v := hc.View(); !v.Indexed() || v.Len() != 6 || v.Index == nil {
		t.Fatalf("indexed view: %+v", v)
	}
	if hc.View().Matrix != nil {
		t.Fatal("indexed cohort should have no dense matrix")
	}
	for i := 6; i < 10; i++ {
		if err := hc.Add(names[i], runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !hc.Indexed() || hc.Len() != 10 {
		t.Fatalf("grown cohort: indexed=%v len=%d", hc.Indexed(), hc.Len())
	}
	upDiffs := hc.DiffCalls()

	// Shrinking below threshold/2 = 3 returns to the dense matrix.
	if !hc.Remove(names[9]) || !hc.Remove(names[8]) || !hc.Remove(names[7]) {
		t.Fatal("remove failed")
	}
	for i := 6; i >= 2; i-- {
		// Hysteresis: the index persists at or above threshold/2 even
		// though these sizes are below the switch-up threshold.
		if !hc.Indexed() {
			t.Fatalf("index dropped early at len %d", hc.Len())
		}
		if !hc.Remove(names[i]) {
			t.Fatalf("remove %s failed", names[i])
		}
	}
	if hc.Indexed() || hc.Len() != 2 {
		t.Fatalf("not back to dense: indexed=%v len=%d", hc.Indexed(), hc.Len())
	}
	if hc.Remove("nope") {
		t.Fatal("removing a missing run returned true")
	}
	if hc.DiffCalls() < upDiffs {
		t.Fatalf("diff counter went backwards across switch-down: %d -> %d", upDiffs, hc.DiffCalls())
	}
	if hc.Rebuilds() < 2 {
		t.Fatalf("rebuilds = %d, want at least the two switch rebuilds", hc.Rebuilds())
	}
	got, _ := hc.Members()
	if !reflect.DeepEqual(got, names[:2]) {
		t.Fatalf("members after churn: %v", got)
	}
}

// TestHybridViewMatchesDense: the indexed view answers exact
// distances identical to a dense matrix of the same cohort.
func TestHybridViewMatchesDense(t *testing.T) {
	names, runs := hybridRuns(t, 8)
	hc := NewHybridCohort(cost.Length{}, 2, HybridOptions{IndexThreshold: 4})
	if err := hc.Reset(names, runs, Options{}); err != nil {
		t.Fatal(err)
	}
	if !hc.Indexed() {
		t.Fatal("Reset above threshold should index")
	}
	want, err := DistanceMatrix(runs, names, cost.Length{})
	if err != nil {
		t.Fatal(err)
	}
	v := hc.View()
	if !reflect.DeepEqual(v.Index.Labels(), want.Labels) {
		t.Fatalf("labels: %v vs %v", v.Index.Labels(), want.Labels)
	}
	for i, name := range want.Labels {
		if j, ok := v.IndexOf(name); !ok || j != i || v.Label(i) != name {
			t.Fatalf("name lookup of %q: IndexOf = %d %v, Label(%d) = %q", name, j, ok, i, v.Label(i))
		}
	}
	for i := 0; i < len(runs); i++ {
		for j := 0; j < len(runs); j++ {
			d, err := v.Index.Distance(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if d != want.D[i][j] {
				t.Fatalf("d(%d,%d): index %g, dense %g", i, j, d, want.D[i][j])
			}
			if b := v.Index.Bound(i, j); b > d {
				t.Fatalf("bound(%d,%d)=%g > exact %g", i, j, b, d)
			}
		}
	}
	if hc.PrunedPairs() != 0 {
		t.Fatalf("exhaustive distance reads pruned %d pairs", hc.PrunedPairs())
	}

	// Reset below threshold goes dense again, same geometry.
	if err := hc.Reset(names[:3], runs[:3], Options{}); err != nil {
		t.Fatal(err)
	}
	if hc.Indexed() {
		t.Fatal("small Reset should be dense")
	}
	v2 := hc.View()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if v2.Matrix.D[i][j] != want.D[i][j] {
				t.Fatalf("dense rebuild drifted at (%d,%d)", i, j)
			}
		}
	}
}

// TestHybridDisabledNeverIndexes: a negative threshold pins the
// cohort to the dense representation at any size.
func TestHybridDisabledNeverIndexes(t *testing.T) {
	names, runs := hybridRuns(t, 6)
	hc := NewHybridCohort(cost.Unit{}, 2, HybridOptions{IndexThreshold: -1})
	if err := hc.Reset(names, runs, Options{}); err != nil {
		t.Fatal(err)
	}
	if hc.Indexed() {
		t.Fatal("disabled hybrid indexed anyway")
	}
	for i, name := range names {
		if err := hc.Add(name+"x", runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if hc.Indexed() || hc.Len() != 12 {
		t.Fatalf("disabled hybrid: indexed=%v len=%d", hc.Indexed(), hc.Len())
	}
}

// TestHybridVersionAndEmptyView: an empty cohort views as an empty
// CohortView with no medoid and an error for every query, and Add then
// Remove leaves it empty again.
func TestHybridVersionAndEmptyView(t *testing.T) {
	names, runs := hybridRuns(t, 2)
	hc := NewHybridCohort(cost.Unit{}, 1, HybridOptions{})
	checkEmpty := func() {
		t.Helper()
		v := hc.View()
		if v.Len() != 0 || v.Matrix != nil || v.Index != nil {
			t.Fatalf("empty view: %+v", v)
		}
		if _, ok, err := v.Medoid(context.Background()); ok || err != nil {
			t.Fatalf("empty view Medoid: ok=%v err=%v", ok, err)
		}
		if _, err := v.Nearest(0, 1); err == nil {
			t.Fatal("empty view Nearest succeeded")
		}
		if _, err := v.Outliers(1); err == nil {
			t.Fatal("empty view Outliers succeeded")
		}
		if _, err := v.Cluster(context.Background(), 1, 1); err == nil {
			t.Fatal("empty view Cluster succeeded")
		}
	}
	checkEmpty()
	if err := hc.Add(names[0], runs[0]); err != nil {
		t.Fatal(err)
	}
	if !hc.Remove(names[0]) {
		t.Fatal("remove failed")
	}
	if hc.Has(names[0]) || hc.Len() != 0 {
		t.Fatalf("empty again: has=%v len=%d", hc.Has(names[0]), hc.Len())
	}
	checkEmpty()
}

// TestCohortViewQueries: over the same cohort, a dense and an indexed
// view answer Nearest and Outliers identically (the indexed outlier
// scores omit MeanAll), and both Cluster and Medoid name a member.
func TestCohortViewQueries(t *testing.T) {
	names, runs := hybridRuns(t, 8)
	views := make([]*CohortView, 2)
	for i, th := range []int{-1, 1} {
		hc := NewHybridCohort(cost.Unit{}, 2, HybridOptions{IndexThreshold: th})
		if err := hc.Reset(names, runs, Options{}); err != nil {
			t.Fatal(err)
		}
		views[i] = hc.View()
	}
	dense, indexed := views[0], views[1]
	if dense.Indexed() || !indexed.Indexed() {
		t.Fatalf("representations: dense indexed=%v, indexed indexed=%v", dense.Indexed(), indexed.Indexed())
	}
	for i := range names {
		want, err := dense.Nearest(i, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := indexed.Nearest(i, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Nearest(%d): indexed %v, dense %v", i, got, want)
		}
	}
	want, err := dense.Outliers(2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := indexed.Outliers(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i].MeanAll = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Outliers: indexed %v, dense %v", got, want)
	}
	for _, v := range views {
		cl, err := v.Cluster(context.Background(), 2, 1)
		if err != nil || cl.K != 2 || len(cl.Assign) != len(names) {
			t.Fatalf("Cluster (indexed=%v): %+v %v", v.Indexed(), cl, err)
		}
		m, ok, err := v.Medoid(context.Background())
		if err != nil || !ok || m < 0 || m >= len(names) {
			t.Fatalf("Medoid (indexed=%v): %d %v %v", v.Indexed(), m, ok, err)
		}
	}
	if m, _, _ := dense.Medoid(context.Background()); m != dense.Matrix.Medoid() {
		t.Fatalf("dense Medoid %d, matrix medoid %d", m, dense.Matrix.Medoid())
	}
}
