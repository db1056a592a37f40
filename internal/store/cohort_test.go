package store

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/wfrun"
)

// seedCohort stores a spec and n runs, returning the reopened store
// (cold caches) and the run names.
func seedCohort(t *testing.T, n int) (*Store, []string) {
	t.Helper()
	s := openStore(t)
	pa, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSpec("pa", pa); err != nil {
		t.Fatal(err)
	}
	sp, err := s.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SaveRun("pa", names[i], r); err != nil {
			t.Fatal(err)
		}
	}
	return reopenStore(s), names
}

func TestRunCache(t *testing.T) {
	s, names := seedCohort(t, 3)
	r1, err := s.LoadRun("pa", names[0])
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.LoadRun("pa", names[0])
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("LoadRun should cache the parsed run object")
	}
	if err := s.DeleteRun("pa", names[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadRun("pa", names[0]); err == nil {
		t.Fatal("deleted run must be evicted from the cache")
	}
}

// TestCohortMatchesPairwiseDiff: the cohort matrix over the stored
// runs equals per-pair store Diff results, and engine-threaded DiffWith
// agrees with Diff.
func TestCohortMatchesPairwiseDiff(t *testing.T) {
	s, names := seedCohort(t, 4)
	listed, err := s.ListRuns("pa")
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]*wfrun.Run, len(listed))
	for i, name := range listed {
		if runs[i], err = s.LoadRun("pa", name); err != nil {
			t.Fatal(err)
		}
	}
	mx, err := analysis.DistanceMatrix(runs, listed, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(mx.Labels, names) {
		t.Fatalf("labels = %v", mx.Labels)
	}
	eng := core.NewEngine(cost.Unit{})
	for i := range names {
		for j := range names {
			res, err := s.Diff("pa", names[i], names[j], cost.Unit{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Distance != mx.D.At(i, j) {
				t.Fatalf("matrix[%d][%d] = %g, Diff = %g", i, j, mx.D.At(i, j), res.Distance)
			}
			res2, err := s.DiffWith(eng, "pa", names[i], names[j])
			if err != nil {
				t.Fatal(err)
			}
			if res2.Distance != res.Distance {
				t.Fatalf("DiffWith(%d,%d) = %g, Diff = %g", i, j, res2.Distance, res.Distance)
			}
		}
	}
}

// TestCohortEnginePerGoroutineRace exercises the intended concurrency
// model under -race: parsed runs are shared via the store cache while
// every goroutine differences them with its own engine, as a cohort
// matrix build does.
func TestCohortEnginePerGoroutineRace(t *testing.T) {
	s, names := seedCohort(t, 5)
	want := make([][]float64, len(names))
	for i := range names {
		want[i] = make([]float64, len(names))
		for j := range names {
			res, err := s.Diff("pa", names[i], names[j], cost.Unit{})
			if err != nil {
				t.Fatal(err)
			}
			want[i][j] = res.Distance
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			eng := core.NewEngine(cost.Unit{})
			for i := range names {
				for j := range names {
					res, err := s.DiffWith(eng, "pa", names[i], names[j])
					if err != nil {
						errs <- err
						return
					}
					if res.Distance != want[i][j] {
						t.Errorf("goroutine %d: pair (%d,%d) = %g, want %g", g, i, j, res.Distance, want[i][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
