package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/fixtures"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/sptree"
	"repro/internal/wfrun"
)

// fig2Variant derives a run of the Fig. 2 specification from an edge
// list whose node IDs are labels with a letter suffix ("3a").
func fig2Variant(t *testing.T, sp *spec.Spec, edges [][2]string) *wfrun.Run {
	t.Helper()
	g := graph.New()
	for _, e := range edges {
		for _, id := range e {
			if !g.HasNode(graph.NodeID(id)) {
				g.MustAddNode(graph.NodeID(id), id[:len(id)-1])
			}
		}
	}
	for _, e := range edges {
		g.MustAddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	r, err := wfrun.Derive(sp, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLeafPenaltyDisablesShortcuts: two runs whose trees have equal
// shapes but whose fork copies carry different data (node 3a renamed
// 3c). Without a penalty they are at distance 0. With a penalty of κ
// per matched leaf pair whose edges differ, the 3a and 3c copies either
// match at 2κ or are deleted and inserted at 1 + 1, so the penalized
// distance is min(2κ, 2) — the value the DP finds without shortcuts —
// and never the 0 that deciding equal shapes at cost 0, or pre-pairing
// equal copies, would give.
func TestLeafPenaltyDisablesShortcuts(t *testing.T) {
	sp := fixtures.Fig2Spec()
	base := [][2]string{
		{"1a", "2a"},
		{"2a", "3a"}, {"3a", "6a"},
		{"2a", "3b"}, {"3b", "6a"},
		{"2a", "4a"}, {"4a", "6a"},
		{"6a", "7a"},
	}
	renamed := make([][2]string, len(base))
	for i, e := range base {
		for k, id := range e {
			if id == "3a" {
				id = "3c"
			}
			renamed[i][k] = id
		}
	}
	r1 := fig2Variant(t, sp, base)
	r2 := fig2Variant(t, sp, renamed)
	if d, err := Distance(r1, r2, cost.Unit{}); err != nil || d != 0 {
		t.Fatalf("unpenalized distance = %v, %v; want 0 (equal shapes)", d, err)
	}
	for _, kappa := range []float64{0.25, 5} {
		penalty := func(q1, q2 *sptree.Node) float64 {
			if q1.Edge.From != q2.Edge.From || q1.Edge.To != q2.Edge.To {
				return kappa
			}
			return 0
		}
		want := math.Min(2*kappa, 2)
		for _, pair := range [][2]*wfrun.Run{{r1, r2}, {r2, r1}} {
			res, err := Diff(pair[0], pair[1], cost.Unit{}, WithLeafPenalty(penalty))
			if err != nil {
				t.Fatal(err)
			}
			if res.Distance != want {
				t.Fatalf("κ=%g: penalized distance %g, want %g", kappa, res.Distance, want)
			}
		}
	}
}

// weightedMetric is a label-weighted model over a specification's
// labels that passes CheckMetric: the engine cannot vouch for it, so it
// exercises the path without fork pre-pairing.
func weightedMetric(t testing.TB, sp *spec.Spec) cost.Model {
	t.Helper()
	var labels []string
	for _, n := range sp.G.Nodes() {
		labels = append(labels, sp.G.Label(n))
	}
	w := map[string]float64{}
	for i, l := range labels {
		if i%3 == 0 {
			w[l] = 1.5
		}
	}
	m := cost.Weighted{Base: cost.Unit{}, W: w}
	if err := cost.CheckMetric(m, 6, []string{labels[0], labels[1], ""}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestShortcutsKeepDistances compares the engine against itself with
// both shortcuts off (a zero leaf penalty turns them off and adds
// nothing) over the mixed corpus, under every built-in model and a
// weighted one, and checks that each script prices at the distance.
func TestShortcutsKeepDistances(t *testing.T) {
	zero := func(q1, q2 *sptree.Node) float64 { return 0 }
	for ci, cohort := range engineCorpus(t) {
		models := []cost.Model{cost.Unit{}, cost.Length{}, cost.Power{Epsilon: 0.5}, cost.Power{Epsilon: 0.25},
			weightedMetric(t, cohort[0].Spec)}
		for _, m := range models {
			fast, slow := NewEngine(m), NewEngine(m, WithLeafPenalty(zero))
			for i := range cohort {
				for j := range cohort {
					want, err := slow.Distance(cohort[i], cohort[j])
					if err != nil {
						t.Fatal(err)
					}
					res, err := fast.Diff(cohort[i], cohort[j])
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(res.Distance-want) > 1e-9 {
						t.Fatalf("cohort %d %s pair (%d,%d): %g with shortcuts, %g without", ci, m.Name(), i, j, res.Distance, want)
					}
					script, _, err := res.Script()
					if err != nil {
						t.Fatal(err)
					}
					if got := EvaluateScript(script, m); math.Abs(got-res.Distance) > 1e-9 {
						t.Fatalf("cohort %d %s pair (%d,%d): script costs %g, distance %g", ci, m.Name(), i, j, got, res.Distance)
					}
				}
			}
		}
	}
}

// TestConcurrentFirstDiff: several goroutines diff the same
// never-diffed runs at once, each with its own engine, so the runs'
// shapes are prepared concurrently (run it under -race). Every
// goroutine must see the distances a sequential pass over an identical,
// separately generated cohort sees.
func TestConcurrentFirstDiff(t *testing.T) {
	cohort := func() []*wfrun.Run {
		sp, err := gen.Catalog("PA")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		runs := make([]*wfrun.Run, 8)
		for i := range runs {
			if runs[i], err = gen.RandomRun(sp, gen.DefaultRunParams(), rng); err != nil {
				t.Fatal(err)
			}
		}
		return runs
	}
	shared, fresh := cohort(), cohort()
	eng := NewEngine(cost.Unit{})
	want := make([]float64, 0, len(fresh)*len(fresh))
	for i := range fresh {
		for j := range fresh {
			d, err := eng.Distance(fresh[i], fresh[j])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, d)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := NewEngine(cost.Unit{})
			for i := range shared {
				for j := range shared {
					// Stagger the start so the goroutines meet on
					// different runs.
					a, b := (i+w)%len(shared), (j+w)%len(shared)
					d, err := eng.Distance(shared[a], shared[b])
					if err != nil {
						t.Error(err)
						return
					}
					if d != want[a*len(shared)+b] {
						t.Errorf("worker %d pair (%d,%d): %g, want %g", w, a, b, d, want[a*len(shared)+b])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestReplacedTreeIsReprepared: a run's prepared shapes belong to the
// tree they were computed from, so replacing Run.Tree takes effect on
// the next diff.
func TestReplacedTreeIsReprepared(t *testing.T) {
	sp := fixtures.Fig2Spec()
	r1, r2 := fixtures.Fig2R1(sp), fixtures.Fig2R2(sp)
	eng := NewEngine(cost.Unit{})
	if d, err := eng.Distance(r1, r2); err != nil || d != 4 {
		t.Fatalf("distance = %v, %v; want 4", d, err)
	}
	r1.Tree = r2.Tree.Clone()
	if d, err := eng.Distance(r1, r2); err != nil || d != 0 {
		t.Fatalf("after replacing the tree: distance = %v, %v; want 0", d, err)
	}
}
