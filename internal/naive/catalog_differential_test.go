package naive

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/spec"
)

// catalogWeighted is a label-weighted model over a specification that
// passes CheckMetric. The engine cannot vouch for weighted models, so
// it differences them without pre-pairing equal fork copies.
func catalogWeighted(t *testing.T, sp *spec.Spec) cost.Model {
	t.Helper()
	w := map[string]float64{}
	var labels []string
	for i, n := range sp.G.Nodes() {
		l := sp.G.Label(n)
		labels = append(labels, l)
		if i%2 == 0 {
			w[l] = 1.25
		}
	}
	m := cost.Weighted{Base: cost.Length{}, W: w}
	if err := cost.CheckMetric(m, 8, []string{labels[0], labels[1], ""}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCatalogMatchesReference differences runs of the six Table I
// workflows at Fig. 11 sizes, where equal subtrees and equal fork
// copies are common, against the reference under every built-in model
// and a weighted one. One engine per model is reused across all
// workflows, so its shape-keyed deletion tables carry over between
// pairs and specifications.
func TestCatalogMatchesReference(t *testing.T) {
	models := []cost.Model{cost.Unit{}, cost.Length{}, cost.Power{Epsilon: 0.5}, cost.Power{Epsilon: 0.25}}
	engines := make([]*core.Engine, len(models))
	for i, m := range models {
		engines[i] = core.NewEngine(m)
	}
	rng := rand.New(rand.NewSource(42))
	for _, name := range gen.CatalogNames {
		sp, err := gen.Catalog(name)
		if err != nil {
			t.Fatal(err)
		}
		weighted := catalogWeighted(t, sp)
		for _, total := range []int{200, 600} {
			r1, err := gen.RunWithTargetEdges(sp, total/2, 0.1, gen.DefaultRunParams(), rng)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := gen.RunWithTargetEdges(sp, total/2, 0.1, gen.DefaultRunParams(), rng)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range append(models, weighted) {
				want, err := Distance(r1, r2, m)
				if err != nil {
					t.Fatal(err)
				}
				eng := core.NewEngine(m)
				if i < len(engines) {
					eng = engines[i]
				}
				got, err := eng.Distance(r1, r2)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s edges=%d %s: engine %g, reference %g", name, total, m.Name(), got, want)
				}
			}
		}
	}
}
