package analysis

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/wfrun"
)

// cohortRuns generates n runs of a random-but-fixed specification.
func cohortRuns(t testing.TB, n int) ([]string, []*wfrun.Run) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	sp, err := gen.RandomSpec(gen.SpecConfig{Edges: 12, SeriesRatio: 1, Forks: 2, Loops: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	runs := make([]*wfrun.Run, n)
	for i := range runs {
		names[i] = "r" + string(rune('a'+i))
		if runs[i], err = gen.RandomRun(sp, gen.DefaultRunParams(), rng); err != nil {
			t.Fatal(err)
		}
	}
	return names, runs
}

// denseCohort is a cohort that stays dense at any size.
func denseCohort(m cost.Model, workers int) *HybridCohort {
	return NewHybridCohort(m, workers, HybridOptions{IndexThreshold: -1})
}

// TestCohortMatrixMatchesDistanceMatrix: a Reset-built cohort matrix
// equals the one-shot DistanceMatrix, whatever the shard count.
func TestCohortMatrixMatchesDistanceMatrix(t *testing.T) {
	names, runs := cohortRuns(t, 7)
	want, err := DistanceMatrix(runs, names, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 16} {
		cm := denseCohort(cost.Unit{}, workers)
		if err := cm.Reset(names, runs, Options{}); err != nil {
			t.Fatal(err)
		}
		got := cm.View().Matrix
		if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.D, want.D) {
			t.Fatalf("workers=%d: matrix mismatch\ngot  %v\nwant %v", workers, got.D, want.D)
		}
	}
}

// TestCohortMatrixIncrementalAdd: growing the cohort one run at a time
// converges to the full-recompute matrix while differencing only the
// new pairs — O(n) per import, asserted through the diff-call counter.
func TestCohortMatrixIncrementalAdd(t *testing.T) {
	names, runs := cohortRuns(t, 8)
	cm := denseCohort(cost.Unit{}, 2)
	for i := range runs {
		before := cm.DiffCalls()
		if err := cm.Add(names[i], runs[i]); err != nil {
			t.Fatal(err)
		}
		if got, want := cm.DiffCalls()-before, int64(i); got != want {
			t.Fatalf("adding run %d performed %d diffs, want exactly %d", i, got, want)
		}
	}
	want, err := DistanceMatrix(runs, names, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	got := cm.View().Matrix
	if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.D, want.D) {
		t.Fatalf("incremental matrix diverged from full recompute\ngot  %v\nwant %v", got.D, want.D)
	}
	// Total incremental work: n(n-1)/2 diffs, same as one full build —
	// but each import only paid its own row.
	if total := cm.DiffCalls(); total != int64(len(runs)*(len(runs)-1)/2) {
		t.Fatalf("total diffs = %d", total)
	}
}

// TestCohortMatrixReplaceAndRemove: re-adding an existing name
// replaces its row (O(n) diffs, not a rebuild); Remove drops the
// row/column with zero diffs.
func TestCohortMatrixReplaceAndRemove(t *testing.T) {
	names, runs := cohortRuns(t, 6)
	cm := denseCohort(cost.Length{}, 0)
	if err := cm.Reset(names[:5], runs[:5], Options{}); err != nil {
		t.Fatal(err)
	}
	// Replace rb's run with a different one.
	before := cm.DiffCalls()
	if err := cm.Add(names[1], runs[5]); err != nil {
		t.Fatal(err)
	}
	if got := cm.DiffCalls() - before; got != 4 {
		t.Fatalf("replace performed %d diffs, want 4", got)
	}
	// The replaced cohort must equal a from-scratch matrix over the
	// same member set (order differs: replaced rows move to the end).
	swapped := append(append([]*wfrun.Run(nil), runs[0]), runs[2], runs[3], runs[4], runs[5])
	labels := []string{names[0], names[2], names[3], names[4], names[1]}
	want, err := DistanceMatrix(swapped, labels, cost.Length{})
	if err != nil {
		t.Fatal(err)
	}
	got := cm.View().Matrix
	if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.D, want.D) {
		t.Fatalf("after replace:\ngot  %v %v\nwant %v %v", got.Labels, got.D, want.Labels, want.D)
	}

	// Remove a middle member.
	before = cm.DiffCalls()
	if !cm.Remove(names[2]) {
		t.Fatal("remove of present run must report true")
	}
	if cm.Remove("nope") {
		t.Fatal("remove of absent run must report false")
	}
	if cm.DiffCalls() != before {
		t.Fatal("remove must not difference anything")
	}
	kept := []*wfrun.Run{runs[0], runs[3], runs[4], runs[5]}
	keptNames := []string{names[0], names[3], names[4], names[1]}
	want2, err := DistanceMatrix(kept, keptNames, cost.Length{})
	if err != nil {
		t.Fatal(err)
	}
	got2 := cm.View().Matrix
	if !reflect.DeepEqual(got2.Labels, want2.Labels) || !reflect.DeepEqual(got2.D, want2.D) {
		t.Fatalf("after remove:\ngot  %v %v\nwant %v %v", got2.Labels, got2.D, want2.Labels, want2.D)
	}
	v := cm.View()
	_, has2 := v.IndexOf(names[2])
	_, has0 := v.IndexOf(names[0])
	if has2 || !has0 || cm.Len() != 4 {
		t.Fatalf("membership bookkeeping broken: %v", v.Matrix.Labels)
	}
}

// TestCohortMatrixIncrementalSavesDiffs is the acceptance bound: for a
// 32-run cohort, importing one more run must cost >= 5x fewer engine
// diffs than recomputing the whole matrix.
func TestCohortMatrixIncrementalSavesDiffs(t *testing.T) {
	names, runs := cohortRuns(t, 33)
	cm := denseCohort(cost.Unit{}, 0)
	if err := cm.Reset(names[:32], runs[:32], Options{}); err != nil {
		t.Fatal(err)
	}
	fullDiffs := cm.DiffCalls() // 32*31/2 = 496
	before := cm.DiffCalls()
	if err := cm.Add(names[32], runs[32]); err != nil {
		t.Fatal(err)
	}
	incDiffs := cm.DiffCalls() - before // 32
	if incDiffs*5 > fullDiffs {
		t.Fatalf("incremental import cost %d diffs vs %d for the full build; want >= 5x fewer", incDiffs, fullDiffs)
	}
	t.Logf("full build: %d diffs; incremental import: %d diffs (%.1fx fewer)",
		fullDiffs, incDiffs, float64(fullDiffs)/float64(incDiffs))
}

// cloneMatrix deep-copies a view's matrix (nil for an empty cohort).
func cloneMatrix(mx *Matrix) *Matrix {
	if mx == nil {
		return nil
	}
	c := &Matrix{Labels: append([]string(nil), mx.Labels...), D: make([][]float64, len(mx.D))}
	for i, row := range mx.D {
		c.D[i] = append([]float64(nil), row...)
	}
	return c
}

// TestCohortMatrixConcurrentReads: views taken while Add and Remove
// are in flight are always internally consistent (square, labeled,
// symmetric, zero diagonal), and a view stays equal to a copy taken
// when it was handed out however the cohort moves on. Run it under
// -race: a mutation that wrote to a published generation would race
// the readers.
func TestCohortMatrixConcurrentReads(t *testing.T) {
	names, runs := cohortRuns(t, 8)
	cm := denseCohort(cost.Unit{}, 2)
	if err := cm.Reset(names[:4], runs[:4], Options{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev, prevCopy *Matrix
			for {
				select {
				case <-stop:
					return
				default:
				}
				mx := cm.View().Matrix
				if mx == nil {
					continue
				}
				if len(mx.Labels) != len(mx.D) {
					t.Errorf("view: %d labels, %d rows", len(mx.Labels), len(mx.D))
					return
				}
				for i, row := range mx.D {
					if len(row) != len(mx.D) || row[i] != 0 {
						t.Errorf("view row %d inconsistent", i)
						return
					}
					for j := range row {
						if row[j] != mx.D[j][i] {
							t.Errorf("view asymmetric at (%d,%d)", i, j)
							return
						}
					}
				}
				if prev != nil && !reflect.DeepEqual(prev, prevCopy) {
					t.Errorf("an earlier view changed after later mutations")
					return
				}
				prev, prevCopy = mx, cloneMatrix(mx)
			}
		}()
	}
	for i := 4; i < 8; i++ {
		if err := cm.Add(names[i], runs[i]); err != nil {
			t.Fatal(err)
		}
		cm.Remove(names[i-4])
	}
	close(stop)
	wg.Wait()
}

// TestDenseViewSurvivesMutations: a dense view shares the published
// rows, so no mutation may write to them afterwards. Each view taken
// along the way — after an Add, a replacing Add, a Remove, a
// successful Reset and a cancelled Reset — must still equal the deep
// copy taken when it was handed out.
func TestDenseViewSurvivesMutations(t *testing.T) {
	names, runs := cohortRuns(t, 7)
	cm := denseCohort(cost.Unit{}, 2)
	if err := cm.Reset(names[:4], runs[:4], Options{}); err != nil {
		t.Fatal(err)
	}
	var views, copies []*Matrix
	take := func() {
		mx := cm.View().Matrix
		views = append(views, mx)
		copies = append(copies, cloneMatrix(mx))
	}
	check := func(step string) {
		t.Helper()
		for i := range views {
			if !reflect.DeepEqual(views[i], copies[i]) {
				t.Fatalf("after %s: view %d changed\ngot  %v %v\nwant %v %v",
					step, i, views[i].Labels, views[i].D, copies[i].Labels, copies[i].D)
			}
		}
		take()
	}
	take()
	if err := cm.Add(names[4], runs[4]); err != nil {
		t.Fatal(err)
	}
	check("Add")
	if err := cm.Add(names[1], runs[5]); err != nil {
		t.Fatal(err)
	}
	check("replacing Add")
	if !cm.Remove(names[2]) {
		t.Fatal("remove of present run must report true")
	}
	check("Remove")
	if err := cm.Reset(names[2:6], runs[2:6], Options{}); err != nil {
		t.Fatal(err)
	}
	check("Reset")
	ctx, cancel := context.WithCancel(context.Background())
	err := cm.Reset(names, runs, Options{Context: ctx, Progress: func(done, total int) { cancel() }})
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("cancelled Reset returned %v, want aborted error", err)
	}
	check("cancelled Reset")
	if last := views[len(views)-1]; !reflect.DeepEqual(last, views[len(views)-2]) {
		t.Fatalf("cancelled Reset changed the cohort: %v, want %v", last.Labels, views[len(views)-2].Labels)
	}
}

func TestCohortMatrixErrors(t *testing.T) {
	names, runs := cohortRuns(t, 3)
	cm := denseCohort(cost.Unit{}, 1)
	if err := cm.Reset([]string{"a"}, runs[:2], Options{}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if err := cm.Reset([]string{"a", "a"}, runs[:2], Options{}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate names must error, got %v", err)
	}
	if err := cm.Add("x", nil); err == nil {
		t.Fatal("nil run must error")
	}
	if cm.View().Matrix != nil {
		t.Fatal("empty cohort snapshots to nil")
	}
	_ = names
}

// TestDistanceMatrixCancellation: a cancelled context aborts the
// fan-out with an error instead of finishing the matrix.
func TestDistanceMatrixCancellation(t *testing.T) {
	names, runs := cohortRuns(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	_, err := DistanceMatrixWith(runs, names, cost.Unit{}, Options{
		Workers: 2,
		Context: ctx,
		Progress: func(done, total int) {
			once.Do(func() {
				cancel()
				close(started)
			})
		},
	})
	<-started
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("cancelled cohort returned %v, want aborted error", err)
	}
	// An already-cancelled context aborts before any differencing.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	calls := 0
	_, err = DistanceMatrixWith(runs, names, cost.Unit{}, Options{
		Context:  ctx2,
		Progress: func(done, total int) { calls++ },
	})
	if err == nil {
		t.Fatal("pre-cancelled cohort must error")
	}
	// A nil context preserves the old behavior.
	if _, err := DistanceMatrixWith(runs[:3], names[:3], cost.Unit{}, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestCohortMatrixResetProgressAndAbort: Reset reports every pair
// through Progress, serialized and counting up to the pair total, and
// a cancelled Reset fails without touching the published cohort.
func TestCohortMatrixResetProgressAndAbort(t *testing.T) {
	names, runs := cohortRuns(t, 9)
	cm := denseCohort(cost.Unit{}, 3)
	last, calls := 0, 0
	err := cm.Reset(names[:6], runs[:6], Options{Progress: func(done, total int) {
		if total != 15 || done != last+1 {
			t.Errorf("progress (%d, %d) after %d", done, total, last)
		}
		last = done
		calls++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 15 {
		t.Fatalf("progress calls = %d, want 15", calls)
	}
	before := cloneMatrix(cm.View().Matrix)

	ctx, cancel := context.WithCancel(context.Background())
	err = cm.Reset(names, runs, Options{Context: ctx, Progress: func(done, total int) { cancel() }})
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("cancelled Reset returned %v, want aborted error", err)
	}
	if got := cm.View().Matrix; !reflect.DeepEqual(got, before) {
		t.Fatalf("cancelled Reset changed the cohort:\n%v\nwant\n%v", got, before)
	}
}
