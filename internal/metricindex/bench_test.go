package metricindex

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/wfrun"
)

// The 10k-cohort benchmarks: the scale the metric index exists for,
// where a dense matrix would need ~50M exact diffs before the first
// query. The cohort is built once per process (sync.Once) and shared;
// each benchmark asserts its pruning ratio besides timing, so the CI
// bench gate catches both a slowdown and a silent loss of bound
// strength.

const benchCohortSize = 10000

// benchGroups are run-generation parameter mixes; runs drawn from the
// same mix form a behavioral cluster (similar loop/fork replication),
// giving the cohort the multi-modal structure real experiment
// repositories show and landmark bounds thrive on.
var benchGroups = []gen.RunParams{
	{ProbP: 0.9, ProbF: 0.2, MaxF: 1, ProbL: 0.2, MaxL: 1},
	{ProbP: 0.9, ProbF: 0.9, MaxF: 2, ProbL: 0.2, MaxL: 1},
	{ProbP: 0.9, ProbF: 0.2, MaxF: 1, ProbL: 0.9, MaxL: 2},
	{ProbP: 0.9, ProbF: 0.9, MaxF: 2, ProbL: 0.9, MaxL: 2},
	{ProbP: 0.9, ProbF: 0.9, MaxF: 3, ProbL: 0.3, MaxL: 2},
	{ProbP: 0.9, ProbF: 0.3, MaxF: 2, ProbL: 0.9, MaxL: 3},
	{ProbP: 0.9, ProbF: 0.9, MaxF: 3, ProbL: 0.9, MaxL: 3},
	{ProbP: 0.5, ProbF: 0.5, MaxF: 2, ProbL: 0.5, MaxL: 2},
	{ProbP: 0.9, ProbF: 0.6, MaxF: 2, ProbL: 0.6, MaxL: 4},
	{ProbP: 0.9, ProbF: 0.9, MaxF: 4, ProbL: 0.2, MaxL: 1},
	{ProbP: 0.7, ProbF: 0.8, MaxF: 2, ProbL: 0.8, MaxL: 2},
	{ProbP: 0.9, ProbF: 0.4, MaxF: 3, ProbL: 0.7, MaxL: 3},
	{ProbP: 0.8, ProbF: 0.9, MaxF: 3, ProbL: 0.4, MaxL: 4},
	{ProbP: 0.6, ProbF: 0.7, MaxF: 2, ProbL: 0.9, MaxL: 4},
	{ProbP: 0.9, ProbF: 0.5, MaxF: 4, ProbL: 0.5, MaxL: 2},
	{ProbP: 0.9, ProbF: 0.8, MaxF: 4, ProbL: 0.8, MaxL: 4},
	{ProbP: 0.8, ProbF: 0.2, MaxF: 1, ProbL: 0.8, MaxL: 5},
	{ProbP: 0.7, ProbF: 0.9, MaxF: 5, ProbL: 0.3, MaxL: 1},
	{ProbP: 0.9, ProbF: 0.7, MaxF: 3, ProbL: 0.9, MaxL: 5},
	{ProbP: 0.8, ProbF: 0.6, MaxF: 5, ProbL: 0.6, MaxL: 5},
}

var bench10k struct {
	once sync.Once
	ix   *Index
	err  error
}

// setup10k builds the shared 10k-run index under the length cost
// model (histogram rate 1 — the model cohort analytics default to for
// large repositories because it prices structural change directly).
func setup10k(b *testing.B) *Index {
	b.Helper()
	bench10k.once.Do(func() {
		rng := rand.New(rand.NewSource(20260807))
		sp, err := gen.RandomSpec(gen.SpecConfig{Edges: 10, SeriesRatio: 1, Forks: 2, Loops: 2}, rng)
		if err != nil {
			bench10k.err = err
			return
		}
		names := make([]string, benchCohortSize)
		runs := make([]*wfrun.Run, benchCohortSize)
		for i := range runs {
			names[i] = fmt.Sprintf("r%05d", i)
			if runs[i], err = gen.RandomRun(sp, benchGroups[i%len(benchGroups)], rng); err != nil {
				bench10k.err = err
				return
			}
		}
		ix := New(cost.Length{}, Options{})
		if err := ix.Reset(names, runs); err != nil {
			bench10k.err = err
			return
		}
		bench10k.ix = ix
	})
	if bench10k.err != nil {
		b.Fatal(bench10k.err)
	}
	return bench10k.ix
}

// BenchmarkIndexedNearest10k: one kNN query against the 10k cohort per
// op. The dense alternative pays ~n²/2 diffs up front; the index pays
// a few dozen per query. The ops cycle a fixed query set, each query
// run once before the timer starts, so allocs/op counts the steady
// state and does not depend on b.N. exact/op and %pruned are counted
// over that one pass of the whole set, so they do not depend on b.N
// either. Fails if the set prunes less than 99% of candidates — the
// sub-quadratic claim, enforced.
func BenchmarkIndexedNearest10k(b *testing.B) {
	ix := setup10k(b)
	co := ix.Snapshot()
	queries := make([]int, 16)
	exact0, pruned0 := ix.ExactDiffs(), ix.PrunedPairs()
	for q := range queries {
		queries[q] = (q * 1237) % co.Len()
		if _, err := cluster.IndexedNearest(co, queries[q], 5); err != nil {
			b.Fatal(err)
		}
	}
	exact := ix.ExactDiffs() - exact0
	pruned := ix.PrunedPairs() - pruned0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.IndexedNearest(co, queries[i%len(queries)], 5); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ratio := float64(pruned) / float64(exact+pruned)
	b.ReportMetric(ratio*100, "%pruned")
	b.ReportMetric(float64(exact)/float64(len(queries)), "exact/op")
	if ratio < 0.99 {
		b.Fatalf("pruning ratio %.2f%% below the 99%% gate (%d exact, %d pruned)", ratio*100, exact, pruned)
	}
}

// BenchmarkIndexedOutliers300: one outlier scan (k=3, the service
// default) per op over 300 PA-workflow runs under unit cost — a cohort
// just past the service's default index threshold (256), scored by
// one pruned kNN query per run.
func BenchmarkIndexedOutliers300(b *testing.B) {
	sp, err := gen.Catalog("PA")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20261017))
	names := make([]string, 300)
	runs := make([]*wfrun.Run, len(names))
	for i := range runs {
		names[i] = fmt.Sprintf("r%03d", i)
		if runs[i], err = gen.RandomRun(sp, gen.DefaultRunParams(), rng); err != nil {
			b.Fatal(err)
		}
	}
	ix := New(cost.Unit{}, Options{})
	if err := ix.Reset(names, runs); err != nil {
		b.Fatal(err)
	}
	co := ix.Snapshot()
	// One warm-up scan grows the index's engine tables, so allocs/op
	// counts the steady state and does not depend on b.N.
	if _, err := cluster.IndexedOutliers(co, 3); err != nil {
		b.Fatal(err)
	}
	exact0 := ix.ExactDiffs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.IndexedOutliers(co, 3); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ix.ExactDiffs()-exact0)/float64(b.N), "exact/op")
}

// BenchmarkSampledKMedoids10k: cluster the 10k cohort per op. Exact
// PAM needs the full matrix (~50M diffs); the sampled variant must
// stay under 10% of the pairwise bill (in practice it is far below —
// the gate catches the index silently degrading to quadratic). Every
// op clusters with the same seed, after one warm-up op, so allocs/op
// does not depend on b.N.
func BenchmarkSampledKMedoids10k(b *testing.B) {
	ix := setup10k(b)
	co := ix.Snapshot()
	cl := func() {
		if _, err := cluster.SampledKMedoids(context.Background(), co, 8, 1, cluster.SampleOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	cl()
	exact0 := ix.ExactDiffs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl()
	}
	b.StopTimer()
	n := int64(co.Len())
	allPairs := n * (n - 1) / 2
	perOp := (ix.ExactDiffs() - exact0) / int64(b.N)
	b.ReportMetric(float64(perOp), "diffs/op")
	if frac := float64(perOp) / float64(allPairs); frac > 0.10 {
		b.Fatalf("sampled k-medoids used %.1f%% of all pairs, gate is 10%% (%d of %d)", frac*100, perOp, allPairs)
	}
}
