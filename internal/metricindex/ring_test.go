package metricindex

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/wfrun"
)

// checkStream walks run i's whole candidate stream: every other run
// comes exactly once, floors never fall, the last is +Inf, and no
// candidate handed out after a floor has a Bound below it.
func checkStream(t *testing.T, co *Cohort, i int) {
	t.Helper()
	seen := make([]bool, co.Len())
	var at [2]int
	prev := math.Inf(-1)
	for calls := 0; ; calls++ {
		if calls > co.Len() {
			t.Fatalf("query %d: the stream did not end after %d rings", i, calls)
		}
		ring, next, f := co.Ring(i, at, nil)
		for _, j := range ring {
			if int(j) == i || seen[j] {
				t.Fatalf("query %d: candidate %d handed out twice or is the query", i, j)
			}
			seen[j] = true
			if b := co.Bound(i, int(j)); b < prev {
				t.Fatalf("query %d: candidate %d has Bound %g below the floor %g", i, j, b, prev)
			}
		}
		if f < prev {
			t.Fatalf("query %d: floor fell from %g to %g", i, prev, f)
		}
		at, prev = next, f
		if math.IsInf(f, 1) {
			break
		}
	}
	for j, ok := range seen {
		if j != i && !ok {
			t.Fatalf("query %d: candidate %d never handed out", i, j)
		}
	}
}

// TestRingNearestMatchesDense: on cohorts of 1, 2 and 16 runs and an
// all-duplicate cohort, under an integral model and under the power
// model with ε = 0.5 (whose floors are slacked, not rounded), every
// run's candidate stream is complete and its floors are sound, and
// every kNN answer, for every k, equals the dense path's. Under the
// integral models a ring's floor can equal the current k-th distance
// while the ring holds a candidate of lower index at that bound; a
// search that stopped there instead of admitting the ring fails here.
func TestRingNearestMatchesDense(t *testing.T) {
	withProcs(t, 2)
	names, runs := testCohort(t, 33, 16)
	dup := []*wfrun.Run{runs[3], runs[3], runs[3], runs[3], runs[3]}
	cohorts := map[string][]*wfrun.Run{"one": runs[:1], "two": runs[:2], "dup": dup, "sixteen": runs}
	for _, m := range []cost.Model{cost.Unit{}, cost.Length{}, cost.Power{Epsilon: 0.5}} {
		for label, rs := range cohorts {
			ix := New(m, Options{Landmarks: 3})
			if err := ix.Reset(names[:len(rs)], rs); err != nil {
				t.Fatal(err)
			}
			co := ix.Snapshot()
			n := co.Len()
			d := make([][]float64, n)
			for a := range d {
				d[a] = make([]float64, n)
				for b := range d[a] {
					var err error
					if d[a][b], err = co.Distance(a, b); err != nil {
						t.Fatal(err)
					}
				}
			}
			dm, err := cluster.NewMatrix(d)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				checkStream(t, co, i)
				for k := 1; k < n; k++ {
					want, err := cluster.Nearest(dm, i, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := cluster.IndexedNearest(co, i, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: kNN(%d, k=%d):\n got %v\nwant %v", m.Name(), label, i, k, got, want)
					}
				}
			}
		}
	}
}

// sortedOrder is the anchor order of st built from scratch.
func sortedOrder(st *state) []int32 {
	out := make([]int32, len(st.runs))
	for i := range out {
		out[i] = int32(i)
	}
	sort.Slice(out, func(a, b int) bool { return st.precedes(int(out[a]), int(out[b])) })
	return out
}

// TestOrderKeptAcrossMutations: interleaved fresh and replacing Adds,
// Removes and a Reset keep the anchor order equal to a from-scratch
// sort after every step.
func TestOrderKeptAcrossMutations(t *testing.T) {
	withProcs(t, 2)
	names, runs := testCohort(t, 34, 20)
	ix := New(cost.Unit{}, Options{Landmarks: 3})
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 120; step++ {
		name := names[rng.Intn(len(names))]
		switch op := rng.Intn(4); {
		case step == 60:
			if err := ix.Reset(names[:7], runs[:7]); err != nil {
				t.Fatal(err)
			}
		case op == 0:
			ix.Remove(name)
		default:
			if err := ix.Add(name, runs[rng.Intn(len(runs))]); err != nil {
				t.Fatal(err)
			}
		}
		st := ix.st
		if want := sortedOrder(st); len(st.runs) > 0 && !reflect.DeepEqual(st.order, want) {
			t.Fatalf("step %d: order %v, a fresh sort gives %v", step, st.order, want)
		}
		if len(st.order) != len(st.runs) {
			t.Fatalf("step %d: %d ordered of %d members", step, len(st.order), len(st.runs))
		}
	}
}
