package metricindex

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/wfrun"
)

// testCohort generates n runs of one random-but-fixed specification.
func testCohort(t testing.TB, seed int64, n int) ([]string, []*wfrun.Run) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sp, err := gen.RandomSpec(gen.SpecConfig{Edges: 12, SeriesRatio: 1, Forks: 2, Loops: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	runs := make([]*wfrun.Run, n)
	params := gen.RunParams{ProbP: 0.8, ProbF: 0.6, MaxF: 3, ProbL: 0.6, MaxL: 3}
	for i := range runs {
		names[i] = "r" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		if runs[i], err = gen.RandomRun(sp, params, rng); err != nil {
			t.Fatal(err)
		}
	}
	return names, runs
}

// TestBoundNeverExceedsDistance is the index's core soundness
// property under every analyzable cost model: the published lower
// bound of any pair never exceeds its exact distance.
func TestBoundNeverExceedsDistance(t *testing.T) {
	names, runs := testCohort(t, 21, 14)
	for _, m := range []cost.Model{cost.Unit{}, cost.Length{}, cost.Power{Epsilon: 0.5}} {
		ix := New(m, Options{Landmarks: 4, Workers: 2})
		if err := ix.Reset(names, runs); err != nil {
			t.Fatal(err)
		}
		co := ix.Snapshot()
		for i := 0; i < co.Len(); i++ {
			if co.Bound(i, i) != 0 {
				t.Fatalf("%s: Bound(%d,%d) = %g, want 0", m.Name(), i, i, co.Bound(i, i))
			}
			for j := i + 1; j < co.Len(); j++ {
				b := co.Bound(i, j)
				d, err := co.Distance(i, j)
				if err != nil {
					t.Fatal(err)
				}
				if b > d {
					t.Fatalf("%s: Bound(%d,%d) = %g exceeds exact %g", m.Name(), i, j, b, d)
				}
				if b != co.Bound(j, i) {
					t.Fatalf("%s: asymmetric bound at (%d,%d)", m.Name(), i, j)
				}
			}
		}
	}
}

// TestIncrementalAddMatchesReset: an index grown one Add at a time
// answers kNN queries identically to one built by a single Reset, and
// both match the brute-force engine answer.
func TestIncrementalAddMatchesReset(t *testing.T) {
	names, runs := testCohort(t, 22, 12)
	bulk := New(cost.Length{}, Options{Landmarks: 3, Workers: 2})
	if err := bulk.Reset(names, runs); err != nil {
		t.Fatal(err)
	}
	inc := New(cost.Length{}, Options{Landmarks: 3, Workers: 2})
	for i, name := range names {
		if err := inc.Add(name, runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if inc.Len() != bulk.Len() || inc.Landmarks() == 0 {
		t.Fatalf("incremental index: %d runs, %d landmarks", inc.Len(), inc.Landmarks())
	}
	if !reflect.DeepEqual(inc.Labels(), bulk.Labels()) {
		t.Fatalf("label order diverged:\n%v\n%v", inc.Labels(), bulk.Labels())
	}

	// Brute-force dense matrix straight from the engine.
	eng := core.NewEngine(cost.Length{})
	n := len(runs)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v, err := eng.Distance(runs[i], runs[j])
			if err != nil {
				t.Fatal(err)
			}
			d[i][j], d[j][i] = v, v
		}
	}
	coB, coI := bulk.Snapshot(), inc.Snapshot()
	for i := 0; i < n; i++ {
		want, err := cluster.Nearest(d, i, 4)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := cluster.IndexedNearest(coB, i, 4)
		if err != nil {
			t.Fatal(err)
		}
		gotI, err := cluster.IndexedNearest(coI, i, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotB, want) {
			t.Fatalf("bulk kNN(%d):\n got %v\nwant %v", i, gotB, want)
		}
		if !reflect.DeepEqual(gotI, want) {
			t.Fatalf("incremental kNN(%d):\n got %v\nwant %v", i, gotI, want)
		}
	}
}

// TestQueryAccounting: over one kNN query every non-query candidate is
// either exactly diffed or counted pruned — the counters the CI bench
// gate and /stats rely on must partition the candidate set.
func TestQueryAccounting(t *testing.T) {
	names, runs := testCohort(t, 23, 16)
	ix := New(cost.Length{}, Options{Landmarks: 4, Workers: 2})
	if err := ix.Reset(names, runs); err != nil {
		t.Fatal(err)
	}
	co := ix.Snapshot()
	exact0, pruned0 := ix.ExactDiffs(), ix.PrunedPairs()
	if _, err := cluster.IndexedNearest(co, 0, 3); err != nil {
		t.Fatal(err)
	}
	de, dp := ix.ExactDiffs()-exact0, ix.PrunedPairs()-pruned0
	if de+dp != int64(co.Len()-1) {
		t.Fatalf("accounting: %d exact + %d pruned != %d candidates", de, dp, co.Len()-1)
	}
	if ix.Rebuilds() != 1 {
		t.Fatalf("rebuilds = %d, want 1", ix.Rebuilds())
	}
}

// TestReplaceRemoveAndSnapshotImmutability: membership mutations keep
// the geometry sound, anchors survive member removal, and published
// snapshots never change underneath a reader.
func TestReplaceRemoveAndSnapshotImmutability(t *testing.T) {
	names, runs := testCohort(t, 24, 10)
	ix := New(cost.Unit{}, Options{Landmarks: 3})
	if err := ix.Reset(names, runs); err != nil {
		t.Fatal(err)
	}
	co := ix.Snapshot()
	marks := ix.Landmarks()

	// Reset picks item 0 as the first landmark; removing that member
	// must not drop the anchor or any stored column.
	if !ix.Remove(names[0]) {
		t.Fatal("Remove of a present run returned false")
	}
	if ix.Remove(names[0]) {
		t.Fatal("second Remove returned true")
	}
	if ix.Len() != 9 || ix.Has(names[0]) {
		t.Fatalf("after remove: len %d, has %v", ix.Len(), ix.Has(names[0]))
	}
	if ix.Landmarks() != marks {
		t.Fatalf("anchors dropped with their member: %d -> %d", marks, ix.Landmarks())
	}

	// Replacing an existing name keeps the cohort size.
	if err := ix.Add(names[1], runs[2]); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 9 {
		t.Fatalf("replace changed size to %d", ix.Len())
	}

	// The old snapshot still reads the pre-mutation cohort.
	if co.Len() != 10 || co.Label(0) != names[0] {
		t.Fatalf("snapshot mutated: len %d, label %q", co.Len(), co.Label(0))
	}
	if i, ok := co.IndexOf(names[0]); !ok || i != 0 {
		t.Fatalf("snapshot lost member: %d %v", i, ok)
	}

	// Bounds on the mutated index remain sound.
	co2 := ix.Snapshot()
	for i := 0; i < co2.Len(); i++ {
		for j := i + 1; j < co2.Len(); j++ {
			d, err := co2.Distance(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if b := co2.Bound(i, j); b > d {
				t.Fatalf("post-mutation Bound(%d,%d)=%g > %g", i, j, b, d)
			}
		}
	}
}

func TestValidationErrors(t *testing.T) {
	names, runs := testCohort(t, 25, 4)
	other, otherRuns := testCohort(t, 26, 1)
	_ = other
	ix := New(cost.Unit{}, Options{})
	if err := ix.Reset([]string{"a", "a"}, runs[:2]); err == nil {
		t.Fatal("duplicate names should fail")
	}
	if err := ix.Reset([]string{"a"}, []*wfrun.Run{nil}); err == nil {
		t.Fatal("nil run should fail")
	}
	if err := ix.Reset(names[:2], runs[:1]); err == nil {
		t.Fatal("length mismatch should fail")
	}
	mixed := []*wfrun.Run{runs[0], otherRuns[0]}
	if err := ix.Reset(names[:2], mixed); err == nil {
		t.Fatal("mixed specifications should fail")
	}
	if err := ix.Reset(names, runs); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("x", otherRuns[0]); err == nil {
		t.Fatal("cross-spec Add should fail")
	}
	if err := ix.Add("x", nil); err == nil {
		t.Fatal("nil Add should fail")
	}
	if ix.Len() != 4 {
		t.Fatalf("failed mutations changed the cohort: %d", ix.Len())
	}
}

// TestEmptyAndIdenticalCohorts: degenerate shapes — empty Reset,
// nil Snapshot, and a cohort of identical runs where max-min selection
// stops at one landmark because more cannot improve any bound.
func TestEmptyAndIdenticalCohorts(t *testing.T) {
	ix := New(cost.Unit{}, Options{Landmarks: 4})
	if err := ix.Reset(nil, nil); err != nil {
		t.Fatal(err)
	}
	if ix.Snapshot() != nil {
		t.Fatal("empty cohort should snapshot to nil")
	}
	_, runs := testCohort(t, 27, 1)
	same := []*wfrun.Run{runs[0], runs[0], runs[0]}
	if err := ix.Reset([]string{"a", "b", "c"}, same); err != nil {
		t.Fatal(err)
	}
	if ix.Landmarks() != 1 {
		t.Fatalf("identical cohort grew %d landmarks, want 1", ix.Landmarks())
	}
	co := ix.Snapshot()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if b := co.Bound(i, j); b != 0 {
				t.Fatalf("identical runs Bound(%d,%d) = %g", i, j, b)
			}
		}
	}
}

// TestHistogramBoundBasics: the standalone property entry point — zero
// for identical runs, zero (vacuous) for unanalyzable models, errors
// on spec mismatches.
func TestHistogramBoundBasics(t *testing.T) {
	_, runs := testCohort(t, 28, 2)
	if b, err := HistogramBound(cost.Length{}, runs[0], runs[0]); err != nil || b != 0 {
		t.Fatalf("self bound: %g %v", b, err)
	}
	b, err := HistogramBound(cost.Length{}, runs[0], runs[1])
	if err != nil || b < 0 {
		t.Fatalf("bound: %g %v", b, err)
	}
	f := cost.Func{Fn: func(l int, s, d string) float64 { return float64(l) }, Label: "f"}
	if b, err := HistogramBound(f, runs[0], runs[1]); err != nil || b != 0 {
		t.Fatalf("func model should be vacuous: %g %v", b, err)
	}
	if _, err := HistogramBound(cost.Unit{}, runs[0], nil); err == nil {
		t.Fatal("nil run should fail")
	}
	_, other := testCohort(t, 29, 1)
	if _, err := HistogramBound(cost.Unit{}, runs[0], other[0]); err == nil {
		t.Fatal("cross-spec bound should fail")
	}
}
