package evolve

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/spec"
	"repro/internal/wfrun"
)

// benchVersions builds the gated benchmark fixture: the PA catalog
// workflow, a three-mutation evolution of it, and one run under each
// version — deterministic, so the perf gate compares like with like.
func benchVersions(b *testing.B) (*spec.Spec, *spec.Spec, *wfrun.Run, *wfrun.Run) {
	b.Helper()
	v1, err := gen.Catalog("PA")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	muts, err := gen.Mutate(v1, 3, rng)
	if err != nil {
		b.Fatal(err)
	}
	v2 := muts[len(muts)-1].Spec
	params := gen.RunParams{ProbP: 0.9, ProbF: 0.6, MaxF: 3, ProbL: 0.6, MaxL: 3}
	r1, err := gen.RandomRun(v1, params, rng)
	if err != nil {
		b.Fatal(err)
	}
	r2, err := gen.RandomRun(v2, params, rng)
	if err != nil {
		b.Fatal(err)
	}
	return v1, v2, r1, r2
}

// BenchmarkSpecEvolve gates the spec-to-spec mapping hot path: one
// reused engine differencing the same version pair (the service's
// steady state for /specs/{a}/evolve/{b} on a cache miss).
func BenchmarkSpecEvolve(b *testing.B) {
	v1, v2, _, _ := benchVersions(b)
	eng := NewEngine(DefaultCosts())
	// One warm-up call grows the engine's tables, so allocs/op counts
	// the steady state and does not depend on b.N.
	if _, err := eng.Diff(v1, v2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := eng.Diff(v1, v2)
		if err != nil {
			b.Fatal(err)
		}
		if m.Cost <= 0 {
			b.Fatal("zero-cost mapping for mutated versions")
		}
	}
}

// BenchmarkCrossVersionDiff gates the full cross-version comparison:
// mapping reuse, run projection through wfrun.Execute, and the run
// diff of the projection on a reused engine.
func BenchmarkCrossVersionDiff(b *testing.B) {
	v1, v2, r1, r2 := benchVersions(b)
	m, err := SpecDiff(v1, v2, DefaultCosts())
	if err != nil {
		b.Fatal(err)
	}
	model := cost.Unit{}
	eng := core.NewEngine(model)
	// Warm up as in BenchmarkSpecEvolve.
	if _, err := CrossDiffWith(eng, m, r1, r2, model); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := CrossDiffWith(eng, m, r1, r2, model)
		if err != nil {
			b.Fatal(err)
		}
		if res.Distance < 0 {
			b.Fatal("negative cross distance")
		}
	}
}
