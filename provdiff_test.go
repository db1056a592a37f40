package provdiff

// End-to-end tests through the public API only.

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildPipeline constructs the quickstart specification.
func buildPipeline(t testing.TB) *Spec {
	t.Helper()
	g := NewGraph()
	for _, m := range []string{"fetch", "align", "blastA", "blastB", "collect", "report"} {
		g.MustAddNode(NodeID(m), m)
	}
	g.MustAddEdge("fetch", "align")
	eA := g.MustAddEdge("align", "blastA")
	eA2 := g.MustAddEdge("blastA", "collect")
	eB := g.MustAddEdge("align", "blastB")
	eB2 := g.MustAddEdge("blastB", "collect")
	g.MustAddEdge("collect", "report")
	sp, err := NewSpec(g, []EdgeSet{{eA, eA2}, {eB, eB2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sp := buildPipeline(t)
	r1, err := Execute(sp, FullDecider{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	r2, err := RandomRun(sp, RunParams{ProbP: 1, ProbF: 1, MaxF: 3, MaxL: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Diff(r1, r2, Unit{})
	if err != nil {
		t.Fatal(err)
	}
	script, _, err := res.Script()
	if err != nil {
		t.Fatal(err)
	}
	if script.TotalCost() != res.Distance {
		t.Fatalf("script cost %g != distance %g", script.TotalCost(), res.Distance)
	}
	// XML round trip through the facade.
	var bufS, bufR bytes.Buffer
	if err := EncodeSpec(&bufS, sp, "pipeline"); err != nil {
		t.Fatal(err)
	}
	sp2, err := DecodeSpec(&bufS)
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeRun(&bufR, r2, "r2"); err != nil {
		t.Fatal(err)
	}
	r2b, err := DecodeRun(&bufR, sp2)
	if err != nil {
		t.Fatal(err)
	}
	if r2b.NumEdges() != r2.NumEdges() {
		t.Fatal("run changed across XML round trip")
	}
	// Viewer.
	dv, err := NewDiffView(r1, r2, Length{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dv.HTML("t"), "<svg") {
		t.Fatal("viewer HTML missing SVG")
	}
}

func TestPublicCatalogAndGenerators(t *testing.T) {
	names := CatalogNames()
	if len(names) != 6 {
		t.Fatalf("catalog names = %v", names)
	}
	for _, n := range names {
		if _, err := Catalog(n); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	rng := rand.New(rand.NewSource(2))
	sp, err := RandomSpec(SpecConfig{Edges: 30, SeriesRatio: 1, Forks: 2, Loops: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunWithTargetEdges(sp, 120, 0.15, RunParams{ProbP: 0.9, ProbF: 0.5, MaxF: 3, ProbL: 0.5, MaxL: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumEdges() < 60 {
		t.Fatalf("target-size run too small: %d", r.NumEdges())
	}
	pa, err := ProteinAnnotation()
	if err != nil {
		t.Fatal(err)
	}
	if pa.G.NumNodes() != 15 {
		t.Fatal("protein annotation workflow wrong size")
	}
}

func TestPublicDeriveRun(t *testing.T) {
	sp := buildPipeline(t)
	r, err := Execute(sp, FullDecider{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := DeriveRun(sp, r.Graph, r.EdgeRefs())
	if err != nil {
		t.Fatal(err)
	}
	if r2.NumEdges() != r.NumEdges() {
		t.Fatal("derive changed the run")
	}
}

func TestCheckMetricFacade(t *testing.T) {
	if err := CheckMetric(Power{Epsilon: 0.5}, 8, nil); err != nil {
		t.Fatal(err)
	}
	if err := CheckMetric(Power{Epsilon: 3}, 8, nil); err == nil {
		t.Fatal("superlinear power must fail the metric check")
	}
}

// TestQuickDistanceIsMetric is a property-based check over the public
// API: for random run triples of a random specification, the distance
// is a metric and bounded by full delete+insert.
func TestQuickDistanceIsMetric(t *testing.T) {
	sp := buildPipeline(t)
	property := func(seedA, seedB, seedC int64, modelPick uint8) bool {
		var m CostModel
		switch modelPick % 3 {
		case 0:
			m = Unit{}
		case 1:
			m = Length{}
		default:
			m = Power{Epsilon: 0.5}
		}
		mk := func(seed int64) *Run {
			rng := rand.New(rand.NewSource(seed))
			r, err := RandomRun(sp, RunParams{ProbP: 0.8, ProbF: 0.6, MaxF: 3, MaxL: 1}, rng)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		a, b, c := mk(seedA), mk(seedB), mk(seedC)
		dab, err := Distance(a, b, m)
		if err != nil {
			return false
		}
		dba, _ := Distance(b, a, m)
		dac, _ := Distance(a, c, m)
		dcb, _ := Distance(c, b, m)
		daa, _ := Distance(a, a, m)
		const eps = 1e-9
		if daa != 0 || dab < 0 {
			return false
		}
		if dab-dba > eps || dba-dab > eps {
			return false
		}
		return dab <= dac+dcb+eps
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScriptRealizesDistance property-checks script extraction:
// cost equals distance and the target is reproduced.
func TestQuickScriptRealizesDistance(t *testing.T) {
	sp := buildPipeline(t)
	property := func(seedA, seedB int64) bool {
		mk := func(seed int64) *Run {
			rng := rand.New(rand.NewSource(seed))
			r, err := RandomRun(sp, RunParams{ProbP: 0.7, ProbF: 0.7, MaxF: 4, MaxL: 1}, rng)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		a, b := mk(seedA), mk(seedB)
		res, err := Diff(a, b, Unit{})
		if err != nil {
			return false
		}
		script, _, err := res.Script()
		if err != nil {
			return false
		}
		return script.TotalCost() == res.Distance
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDiffWithDataFacade(t *testing.T) {
	sp := buildPipeline(t)
	r1, err := Execute(sp, FullDecider{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Execute(sp, FullDecider{})
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := NewAnnotations(), NewAnnotations()
	for _, e := range r1.Graph.Edges() {
		a1.SetData(e, "v1")
	}
	for _, e := range r2.Graph.Edges() {
		a2.SetData(e, "v2")
	}
	res, err := DiffWithData(r1, r2, Unit{}, a1, a2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance <= 0 {
		t.Fatal("data penalty should make identical control flow non-zero")
	}
	rep := DataDiff(res, a1, a2)
	if len(rep.Data) == 0 {
		t.Fatal("data differences should be highlighted")
	}
}

// TestEvolutionFacade exercises the workflow-evolution surface end to
// end through the public API: mutate a spec, map the versions, project
// a run across, cross-diff, and round-trip the mapping through the
// binary codec.
func TestEvolutionFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	v1, err := RandomSpec(SpecConfig{Edges: 12, SeriesRatio: 1, Forks: 1, Loops: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	muts, err := MutateSpec(v1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	v2 := muts[len(muts)-1].Spec
	m, err := SpecEvolve(v1, v2, DefaultEvolveCosts())
	if err != nil {
		t.Fatal(err)
	}
	if m.Cost <= 0 {
		t.Errorf("evolution mapping cost %g, want > 0", m.Cost)
	}
	r1, err := RandomRun(v1, DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RandomRun(v2, DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	projected, proj, err := ProjectRun(m, r1, Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if projected.Spec != v2 {
		t.Error("projection landed in the wrong version")
	}
	if proj.Cost() < 0 {
		t.Errorf("projection cost %g", proj.Cost())
	}
	res, err := CrossDiff(m, r1, r2, Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance < res.EngineDistance {
		t.Errorf("cross distance %g below engine distance %g", res.Distance, res.EngineDistance)
	}
	// Identity mapping degenerates to the plain diff.
	r1b, err := RandomRun(v1, DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Distance(r1, r1b, Unit{})
	if err != nil {
		t.Fatal(err)
	}
	same, err := CrossDiff(IdentitySpecMapping(v1), r1, r1b, Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if same.Distance != plain {
		t.Errorf("identity cross distance %g != plain %g", same.Distance, plain)
	}
}
