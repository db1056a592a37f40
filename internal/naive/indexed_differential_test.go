package naive

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/metricindex"
	"repro/internal/wfrun"
)

// The metric-index differential suite: random cohorts across every
// differential cost model, with the exhaustive dense-matrix analytics
// as the oracle. The index answers through lower bounds and pruning,
// so any divergence — an extra neighbor, a reordered outlier, a
// histogram bound above the true distance — pinpoints an unsound
// bound or a broken tie-break, not a cosmetic drift: nearest and
// outlier answers must match the dense path byte for byte.

// randomCohort draws one specification and n runs of it.
func randomCohort(t *testing.T, rng *rand.Rand, n int) ([]string, []*wfrun.Run) {
	t.Helper()
	sp, err := gen.RandomSpec(gen.SpecConfig{
		Edges:       8 + rng.Intn(10),
		SeriesRatio: 1,
		Forks:       1 + rng.Intn(2),
		Loops:       rng.Intn(3),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	params := gen.RunParams{ProbP: 0.8, ProbF: 0.6, MaxF: 3, ProbL: 0.6, MaxL: 3}
	names := make([]string, n)
	runs := make([]*wfrun.Run, n)
	for i := range runs {
		names[i] = fmt.Sprintf("r%02d", i)
		if runs[i], err = gen.RandomRun(sp, params, rng); err != nil {
			t.Fatal(err)
		}
	}
	return names, runs
}

// TestIndexedAnalyticsMatchExhaustive runs ~50 random cohorts (13
// cohort draws x the 4 differential cost models) and checks, per
// cohort:
//
//   - index-pruned kNN answers equal cluster.Nearest over the dense
//     matrix exactly (reflect.DeepEqual), for every query item;
//   - each kNN query diffs exactly the candidates whose (bound, index)
//     is lexicographically at most the final k-th neighbor's
//     (distance, index) — the fewest any bound-only search can diff;
//   - outlier scores and ranks equal cluster.Outliers bitwise;
//   - SampledKMedoids with the sample covering the whole cohort stays
//     within 5% of the full-PAM objective;
//   - the histogram lower bound never exceeds the naive-oracle
//     distance (the property the pruning soundness rests on).
func TestIndexedAnalyticsMatchExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	cohorts := 0
	for trial := 0; trial < 13; trial++ {
		n := 10 + rng.Intn(6)
		names, runs := randomCohort(t, rng, n)
		for _, m := range differentialModels {
			cohorts++
			t.Run(fmt.Sprintf("trial%d-%s", trial, m.Name()), func(t *testing.T) {
				ix := metricindex.New(m, metricindex.Options{Landmarks: 3, Workers: 2})
				if err := ix.Reset(names, runs); err != nil {
					t.Fatal(err)
				}
				co := ix.Snapshot()
				mx, err := analysis.DistanceMatrix(runs, names, m)
				if err != nil {
					t.Fatal(err)
				}

				for i := 0; i < n; i++ {
					for _, k := range []int{1, 3, n - 1} {
						want, err := cluster.Nearest(mx.D, i, k)
						if err != nil {
							t.Fatal(err)
						}
						exact0 := ix.ExactDiffs()
						got, err := cluster.IndexedNearest(co, i, k)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("kNN(%d, k=%d):\n got %v\nwant %v", i, k, got, want)
						}
						kth, must := got[len(got)-1], 0
						for j := 0; j < n; j++ {
							if b := co.Bound(i, j); j != i && (b < kth.Distance || (b == kth.Distance && j <= kth.Index)) {
								must++
							}
						}
						if diffs := ix.ExactDiffs() - exact0; diffs != int64(max(k, must)) {
							t.Fatalf("kNN(%d, k=%d): %d exact diffs, the bound-only optimum is %d", i, k, diffs, max(k, must))
						}
					}
				}

				wantO, err := cluster.Outliers(mx.D, 3)
				if err != nil {
					t.Fatal(err)
				}
				gotO, err := cluster.IndexedOutliers(co, 3)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotO) != len(wantO) {
					t.Fatalf("outliers: %d vs %d", len(gotO), len(wantO))
				}
				for r := range gotO {
					if gotO[r].Index != wantO[r].Index || gotO[r].Score != wantO[r].Score {
						t.Fatalf("outlier rank %d: got %+v, want %+v", r, gotO[r], wantO[r])
					}
				}

				pam, err := cluster.KMedoids(mx.D, 3, 17)
				if err != nil {
					t.Fatal(err)
				}
				skm, err := cluster.SampledKMedoids(context.Background(), co, 3, 17, cluster.SampleOptions{SampleSize: n})
				if err != nil {
					t.Fatal(err)
				}
				if skm.Cost > pam.Cost*1.05+1e-9 {
					t.Fatalf("sampled objective %g strays beyond 5%% of PAM %g", skm.Cost, pam.Cost)
				}

				// Histogram-bound property against the naive oracle on a
				// few random pairs.
				for p := 0; p < 4; p++ {
					i, j := rng.Intn(n), rng.Intn(n)
					hb, err := metricindex.HistogramBound(m, runs[i], runs[j])
					if err != nil {
						t.Fatal(err)
					}
					d, err := Distance(runs[i], runs[j], m)
					if err != nil {
						t.Fatal(err)
					}
					if hb > d+1e-9 {
						t.Fatalf("histogram bound %g exceeds naive distance %g (pair %d,%d)", hb, d, i, j)
					}
				}
			})
		}
	}
	if cohorts < 50 {
		t.Fatalf("only %d cohorts exercised, want ~50", cohorts)
	}
	t.Logf("differential cohorts: %d", cohorts)
}

// TestHistogramBoundPropertyWeighted extends the bound property to
// weighted models (whose rate folds the minimum label weight) and to
// a label-priced Func model, whose rate must be vacuously 0.
func TestHistogramBoundPropertyWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names, runs := randomCohort(t, rng, 8)
	_ = names
	w := cost.Weighted{Base: cost.Unit{}, W: map[string]float64{"a": 0.5, "b": 2}}
	for i := 0; i < len(runs); i++ {
		for j := i + 1; j < len(runs); j++ {
			hb, err := metricindex.HistogramBound(w, runs[i], runs[j])
			if err != nil {
				t.Fatal(err)
			}
			d, err := Distance(runs[i], runs[j], w)
			if err != nil {
				t.Fatal(err)
			}
			if hb > d+1e-9 {
				t.Fatalf("weighted bound %g exceeds %g at (%d,%d)", hb, d, i, j)
			}
		}
	}
	f := cost.Func{Fn: func(l int, s, d string) float64 { return 0.1 }, Label: "flat"}
	hb, err := metricindex.HistogramBound(f, runs[0], runs[1])
	if err != nil || hb != 0 {
		t.Fatalf("func-model bound should be vacuous: %g %v", hb, err)
	}
}
