package metricindex

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/sptree"
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
// property under every analyzable cost model: neither published lower
// bound of any pair exceeds its exact distance, Refine never falls
// below Bound, and both are symmetric.
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
				r := co.Refine(i, j)
				if r > d || r < b {
					t.Fatalf("%s: Refine(%d,%d) = %g outside [Bound %g, exact %g]", m.Name(), i, j, r, b, d)
				}
				if r != co.Refine(j, i) {
					t.Fatalf("%s: asymmetric refined bound at (%d,%d)", m.Name(), i, j)
				}
			}
		}
	}
}

// rawBounds recomputes Bound's and the op-count bound's inputs for a
// pair from the view's state, before any slack or rounding.
func rawBounds(co *Cohort, i, j int) (bound, ops float64) {
	st := co.st
	for m := range st.lm[i] {
		bound = max(bound, math.Abs(st.lm[i][m]-st.lm[j][m]))
	}
	if st.rate > 0 {
		bound = max(bound, st.rate*st.tree.leafL1(st.counts[i], st.counts[j]))
	}
	return bound, st.opCost * float64(st.tree.opCount(st.counts[i], st.counts[j]))
}

// TestBoundLattice: under the unit and length models every Bound and
// Refine is an integer — the slacked bound rounded up — and still at
// most the exact distance; under a power model both keep the slacked
// value bit for bit.
func TestBoundLattice(t *testing.T) {
	for seed := int64(40); seed < 43; seed++ {
		names, runs := testCohort(t, seed, 12)
		for _, tc := range []struct {
			m        cost.Model
			integral bool
		}{{cost.Unit{}, true}, {cost.Length{}, true}, {cost.Power{Epsilon: 0.5}, false}} {
			m, integral := tc.m, tc.integral
			ix := New(m, Options{Landmarks: 3, Workers: 2})
			if err := ix.Reset(names, runs); err != nil {
				t.Fatal(err)
			}
			co := ix.Snapshot()
			for i := 0; i < co.Len(); i++ {
				for j := 0; j < co.Len(); j++ {
					if i == j {
						continue
					}
					raw, ops := rawBounds(co, i, j)
					wantB, wantR := loosen(raw), max(loosen(raw), loosen(ops))
					if integral {
						wantB, wantR = math.Ceil(wantB), max(math.Ceil(loosen(raw)), math.Ceil(loosen(ops)))
					}
					b, r := co.Bound(i, j), co.Refine(i, j)
					if b != wantB || r != wantR {
						t.Fatalf("%s seed %d (%d,%d): Bound %v, Refine %v; want %v, %v", m.Name(), seed, i, j, b, r, wantB, wantR)
					}
					d, err := co.Distance(i, j)
					if err != nil {
						t.Fatal(err)
					}
					if integral && (d != math.Trunc(d) || b != math.Trunc(b) || r != math.Trunc(r)) {
						t.Fatalf("%s seed %d (%d,%d): distance %v, Bound %v, Refine %v not all integers", m.Name(), seed, i, j, d, b, r)
					}
					if b > d || r > d {
						t.Fatalf("%s seed %d (%d,%d): Bound %v or Refine %v exceeds exact %v", m.Name(), seed, i, j, b, r, d)
					}
				}
			}
		}
	}
}

// forkDecider executes every parallel branch and one loop iteration,
// and replicates each fork the number of times copies gives it.
type forkDecider struct{ copies map[*sptree.Node]int }

func (forkDecider) ParallelSubset(p *sptree.Node) []int {
	all := make([]int, len(p.Children))
	for i := range all {
		all[i] = i
	}
	return all
}
func (d forkDecider) ForkCopies(f *sptree.Node) int { return max(d.copies[f], 1) }
func (forkDecider) LoopIterations(*sptree.Node) int { return 1 }

// TestOpCountBoundTightOnForkCopies is a hand-checked case: 1→2, two
// parallel forked branches 2→3→6 and 2→4→6, then 6→7. Runs with fork
// copies (3, 1) and (1, 3) differ by two deletions in the first branch
// and two insertions in the second, each of one elementary path of
// length 2, so the unit distance is 4. The op count sees it exactly:
// f⁻ = 2 at the first fork, f⁺ = 2 at the second, and N⁺ + N⁻ = 4.
// The histogram bound only sees the 8 unmatched leaves at rate
// 1/Lmax = 1/4.
func TestOpCountBoundTightOnForkCopies(t *testing.T) {
	g := graph.New()
	for _, id := range []graph.NodeID{"1", "2", "3", "4", "6", "7"} {
		g.MustAddNode(id, string(id))
	}
	for _, e := range [][2]graph.NodeID{{"1", "2"}, {"2", "3"}, {"3", "6"}, {"2", "4"}, {"4", "6"}, {"6", "7"}} {
		g.MustAddEdge(e[0], e[1])
	}
	fork := func(a, b graph.NodeID) spec.EdgeSet {
		return spec.EdgeSet{{From: "2", To: a}, {From: a, To: b}}
	}
	sp, err := spec.New(g, []spec.EdgeSet{fork("3", "6"), fork("4", "6")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var forks []*sptree.Node
	sp.Tree.Walk(func(v *sptree.Node) bool {
		if v.Type == sptree.F {
			forks = append(forks, v)
		}
		return true
	})
	if len(forks) != 2 {
		t.Fatalf("spec has %d forks, want 2", len(forks))
	}
	run := func(a, b int) *wfrun.Run {
		r, err := wfrun.Execute(sp, forkDecider{map[*sptree.Node]int{forks[0]: a, forks[1]: b}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := run(3, 1), run(1, 3)
	d, err := core.NewEngine(cost.Unit{}).Distance(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := OpCountBound(cost.Unit{}, r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := HistogramBound(cost.Unit{}, r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 4 || ob != 4 || hb != 2 {
		t.Fatalf("distance %g, op-count bound %g, histogram bound %g; want 4, 4, 2", d, ob, hb)
	}
	if ob, err := OpCountBound(cost.Unit{}, r2, r1); err != nil || ob != 4 {
		t.Fatalf("reversed op-count bound %g %v, want 4", ob, err)
	}

	// The landmark (2, 2) lies at distance 2 from both runs, so only
	// the op count lifts Refine above the histogram bound. Unit
	// distances are integers, so both bounds are exact integers.
	ix := New(cost.Unit{}, Options{Landmarks: 1})
	if err := ix.Reset([]string{"mid", "a", "b"}, []*wfrun.Run{run(2, 2), r1, r2}); err != nil {
		t.Fatal(err)
	}
	co := ix.Snapshot()
	if b, r := co.Bound(1, 2), co.Refine(1, 2); b != 2 || r != 4 {
		t.Fatalf("Bound %g, Refine %g; want 2, 4", b, r)
	}
}

// TestRefineConcurrent: one view serves Refine to several goroutines
// at once (they share the op count's scratch pool) and every answer
// equals the sequential one. Run it under -race.
func TestRefineConcurrent(t *testing.T) {
	names, runs := testCohort(t, 30, 12)
	ix := New(cost.Unit{}, Options{Landmarks: 2, Workers: 2})
	if err := ix.Reset(names, runs); err != nil {
		t.Fatal(err)
	}
	co := ix.Snapshot()
	n := co.Len()
	want := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[i*n+j] = co.Refine(i, j)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for p := range want {
					if got := co.Refine(p/n, p%n); got != want[p] {
						errs <- fmt.Sprintf("Refine(%d,%d) = %g, sequentially %g", p/n, p%n, got, want[p])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
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
