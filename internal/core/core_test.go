package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/fixtures"
	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/sptree"
	"repro/internal/wfrun"
)

// TestPaperExampleDistance reproduces Example 5.2 / Fig. 9: the edit
// distance between runs R1 and R2 of Fig. 2 is 4 under the unit cost
// model.
func TestPaperExampleDistance(t *testing.T) {
	sp := fixtures.Fig2Spec()
	r1 := fixtures.Fig2R1(sp)
	r2 := fixtures.Fig2R2(sp)
	d, err := Distance(r1, r2, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if d != 4 {
		t.Fatalf("δ(R1,R2) = %g, want 4 (Example 5.2)", d)
	}
}

// TestPaperExampleScript checks the script of Fig. 3/7: cost 4, every
// intermediate valid, and the final tree equivalent to T2.
func TestPaperExampleScript(t *testing.T) {
	sp := fixtures.Fig2Spec()
	r1 := fixtures.Fig2R1(sp)
	r2 := fixtures.Fig2R2(sp)
	res, err := Diff(r1, r2, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	script, final, err := res.Script()
	if err != nil {
		t.Fatal(err)
	}
	if got := script.TotalCost(); got != res.Distance {
		t.Fatalf("script cost %g != distance %g\n%s", got, res.Distance, script)
	}
	if len(script.Ops) != 4 {
		t.Fatalf("script has %d ops, want 4 (Fig. 7):\n%s", len(script.Ops), script)
	}
	if !sptree.EquivalentRuns(final, r2.Tree) {
		t.Fatalf("script result differs from T2:\n%s\nvs\n%s", final, r2.Tree)
	}
	if err := sptree.ValidateRunTree(final, sp.Tree); err != nil {
		t.Fatal(err)
	}
}

func TestSelfDistanceZero(t *testing.T) {
	sp := fixtures.Fig2Spec()
	r1 := fixtures.Fig2R1(sp)
	d, err := Distance(r1, r1, cost.Length{})
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("δ(R,R) = %g, want 0", d)
	}
}

func TestDifferentSpecsRejected(t *testing.T) {
	spA := fixtures.Fig2Spec()
	spB := fixtures.Fig2Spec()
	r1 := fixtures.Fig2R1(spA)
	r2 := fixtures.Fig2R2(spB)
	if _, err := Diff(r1, r2, cost.Unit{}); err == nil {
		t.Fatal("runs of different specification objects must be rejected")
	}
}

func TestLoopDistance(t *testing.T) {
	sp := fixtures.Fig2SpecWithLoop()
	r3 := fixtures.Fig2R3(sp) // two iterations
	one, err := wfrun.Execute(sp, wfrun.FullDecider{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Distance(r3, one, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("δ(R3, one-iteration run) = %g, want > 0", d)
	}
	dSelf, err := Distance(r3, r3, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if dSelf != 0 {
		t.Fatalf("δ(R3,R3) = %g, want 0", dSelf)
	}
}

// multiEdgeChainSpec builds the unstable-match construction: a top
// parallel node with branch B = single edge (s,t) and branch A =
// s -> m1 -> ... -> m(k-1) -> t where each consecutive hop has two
// parallel edges.
func multiEdgeChainSpec(t *testing.T, k int) *spec.Spec {
	t.Helper()
	g := graph.New()
	g.MustAddNode("s", "s")
	g.MustAddNode("t", "t")
	prev := graph.NodeID("s")
	for i := 1; i < k; i++ {
		id := graph.NodeID("m" + string(rune('0'+i)))
		g.MustAddNode(id, string(id))
		g.MustAddEdge(prev, id)
		g.MustAddEdge(prev, id)
		prev = id
	}
	g.MustAddEdge(prev, "t")
	g.MustAddEdge(prev, "t")
	g.MustAddEdge("s", "t") // branch B
	sp, err := spec.New(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// chainDecider picks, at every 2-way parallel choice below the top
// node, the branch with the given index, and only branch A at the top.
type chainDecider struct{ pick int }

func (d chainDecider) ParallelSubset(p *sptree.Node) []int {
	if len(p.Children) == 2 && p.Children[0].Type == sptree.Q && p.Children[1].Type == sptree.Q &&
		p.Children[0].Edge.From == p.Children[1].Edge.From {
		// A multi-edge hop: pick one of the two parallel edges.
		return []int{d.pick}
	}
	// Top-level P: pick branch A (the S child).
	for i, c := range p.Children {
		if c.Type == sptree.S {
			return []int{i}
		}
	}
	return []int{0}
}
func (chainDecider) ForkCopies(*sptree.Node) int     { return 1 }
func (chainDecider) LoopIterations(*sptree.Node) int { return 1 }

// TestUnstableMatch exercises Definition 5.2 / Eq. 2: when the two
// runs take the same single parallel branch but differ in every hop,
// wholesale delete+insert with a scratch branch (cost 4 under unit
// cost) beats hop-by-hop editing (cost 2k).
func TestUnstableMatch(t *testing.T) {
	sp := multiEdgeChainSpec(t, 4)
	r1, err := wfrun.Execute(sp, chainDecider{pick: 0})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := wfrun.Execute(sp, chainDecider{pick: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Diff(r1, r2, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance != 4 {
		t.Fatalf("unstable distance = %g, want 4 (insert scratch, delete old, insert new, delete scratch)", res.Distance)
	}
	script, final, err := res.Script()
	if err != nil {
		t.Fatal(err)
	}
	if script.TotalCost() != res.Distance {
		t.Fatalf("script cost %g != distance %g\n%s", script.TotalCost(), res.Distance, script)
	}
	temps := 0
	for _, op := range script.Ops {
		if op.Temporary {
			temps++
		}
	}
	if temps != 2 {
		t.Fatalf("expected one scratch insert/delete pair, got %d temporary ops:\n%s", temps, script)
	}
	if !sptree.EquivalentRuns(final, r2.Tree) {
		t.Fatal("unstable script did not produce T2")
	}
}

// hopDecider picks parallel edge 1 only at hops leaving the node
// labeled "s", edge 0 elsewhere; used to build a run differing from
// the all-zeros run in a single hop.
type hopDecider struct{ base chainDecider }

func (d hopDecider) ParallelSubset(p *sptree.Node) []int {
	if len(p.Children) == 2 && p.Children[0].Type == sptree.Q && p.Children[1].Type == sptree.Q &&
		p.Children[0].Edge.From == p.Children[1].Edge.From {
		if p.Src == "s" {
			return []int{1}
		}
		return []int{0}
	}
	return d.base.ParallelSubset(p)
}
func (d hopDecider) ForkCopies(n *sptree.Node) int     { return d.base.ForkCopies(n) }
func (d hopDecider) LoopIterations(n *sptree.Node) int { return d.base.LoopIterations(n) }

// TestStableWhenChainShort verifies the flip side of the unstable
// case: when the runs differ in just one hop of the chain, editing
// that hop (cost 2) beats the scratch workaround (cost 4), so the
// children stay stably matched.
func TestStableWhenChainShort(t *testing.T) {
	sp := multiEdgeChainSpec(t, 2)
	r1, err := wfrun.Execute(sp, chainDecider{pick: 0})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := wfrun.Execute(sp, hopDecider{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Distance(r1, r2, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("distance = %g, want 2", d)
	}
	res, err := Diff(r1, r2, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	script, final, err := res.Script()
	if err != nil {
		t.Fatal(err)
	}
	if script.TotalCost() != 2 {
		t.Fatalf("script cost %g, want 2\n%s", script.TotalCost(), script)
	}
	if !sptree.EquivalentRuns(final, r2.Tree) {
		t.Fatal("stable script did not produce T2")
	}
}

// randRuns builds a pool of random runs of the Fig. 2 specification
// (with loops) for the metric property tests.
func randRuns(t *testing.T, sp *spec.Spec, n int, seed int64) []*wfrun.Run {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dec := &randomDecider{rng: rng}
	out := make([]*wfrun.Run, n)
	for i := range out {
		r, err := wfrun.Execute(sp, dec)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

type randomDecider struct{ rng *rand.Rand }

func (d *randomDecider) ParallelSubset(p *sptree.Node) []int {
	var subset []int
	for i := range p.Children {
		if d.rng.Intn(100) < 65 {
			subset = append(subset, i)
		}
	}
	if len(subset) == 0 {
		subset = []int{d.rng.Intn(len(p.Children))}
	}
	return subset
}
func (d *randomDecider) ForkCopies(*sptree.Node) int     { return 1 + d.rng.Intn(3) }
func (d *randomDecider) LoopIterations(*sptree.Node) int { return 1 + d.rng.Intn(3) }

func TestMetricProperties(t *testing.T) {
	for _, m := range []cost.Model{cost.Unit{}, cost.Length{}, cost.Power{Epsilon: 0.5}} {
		sp := fixtures.Fig2SpecWithLoop()
		runs := randRuns(t, sp, 6, 7)
		dist := func(a, b *wfrun.Run) float64 {
			d, err := Distance(a, b, m)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		for i := range runs {
			if d := dist(runs[i], runs[i]); d != 0 {
				t.Fatalf("%s: δ(R,R) = %g", m.Name(), d)
			}
			for j := i + 1; j < len(runs); j++ {
				dij, dji := dist(runs[i], runs[j]), dist(runs[j], runs[i])
				if math.Abs(dij-dji) > 1e-9 {
					t.Fatalf("%s: asymmetric: δ(i,j)=%g δ(j,i)=%g", m.Name(), dij, dji)
				}
				for k := 0; k < len(runs); k++ {
					dik, dkj := dist(runs[i], runs[k]), dist(runs[k], runs[j])
					if dij > dik+dkj+1e-9 {
						t.Fatalf("%s: triangle violated: δ(i,j)=%g > δ(i,k)+δ(k,j)=%g",
							m.Name(), dij, dik+dkj)
					}
				}
			}
		}
	}
}

func TestScriptPropertiesRandom(t *testing.T) {
	sp := fixtures.Fig2SpecWithLoop()
	runs := randRuns(t, sp, 10, 21)
	for _, m := range []cost.Model{cost.Unit{}, cost.Length{}, cost.Power{Epsilon: 0.5}} {
		for i := 0; i < len(runs); i++ {
			for j := 0; j < len(runs); j++ {
				res, err := Diff(runs[i], runs[j], m)
				if err != nil {
					t.Fatal(err)
				}
				script, final, err := res.Script()
				if err != nil {
					t.Fatalf("%s runs %d->%d: %v", m.Name(), i, j, err)
				}
				if math.Abs(script.TotalCost()-res.Distance) > 1e-9 {
					t.Fatalf("%s runs %d->%d: script cost %g != distance %g\n%s",
						m.Name(), i, j, script.TotalCost(), res.Distance, script)
				}
				if !sptree.EquivalentRuns(final, runs[j].Tree) {
					t.Fatalf("%s runs %d->%d: script result is not R_j\n-- final:\n%s\n-- want:\n%s",
						m.Name(), i, j, final, runs[j].Tree)
				}
				if err := sptree.ValidateRunTree(final, sp.Tree); err != nil {
					t.Fatalf("%s runs %d->%d: final tree invalid: %v", m.Name(), i, j, err)
				}
			}
		}
	}
}

func TestMappingWellFormed(t *testing.T) {
	sp := fixtures.Fig2Spec()
	r1 := fixtures.Fig2R1(sp)
	r2 := fixtures.Fig2R2(sp)
	res, err := Diff(r1, r2, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	mapping := res.Mapping()
	if len(mapping) == 0 || mapping[0][0] != r1.Tree || mapping[0][1] != r2.Tree {
		t.Fatal("mapping must start with the root pair")
	}
	seen1 := map[*sptree.Node]bool{}
	seen2 := map[*sptree.Node]bool{}
	for _, p := range mapping {
		if seen1[p[0]] || seen2[p[1]] {
			t.Fatal("mapping is not one-to-one")
		}
		seen1[p[0]], seen2[p[1]] = true, true
		if p[0].Spec != p[1].Spec {
			t.Fatal("mapped nodes are not homologous")
		}
		if p[0].Parent != nil && (!seen1[p[0].Parent] || !seen2[p[1].Parent]) {
			t.Fatal("parents of mapped pair not mapped (or visited out of order)")
		}
	}
}

func TestDeletionCostUnitHandChecks(t *testing.T) {
	sp := fixtures.Fig2Spec()
	r1 := fixtures.Fig2R1(sp)
	d := newDeleter(cost.Unit{})
	// Deleting the whole (branch-free after reducing forks) run:
	// R1's tree has an F(2,3,6) with two copies (1 extra deletion)
	// plus the middle P with two branches (1 extra), then one final
	// path deletion: X(root) = 3 under unit cost.
	if got := d.X(r1.Tree, ownShapes(r1.Tree)); got != 3 {
		t.Fatalf("X(T1 root) = %g, want 3", got)
	}
	// A single Q leaf costs γ(1) = 1.
	q := r1.Tree.Leaves()[0]
	if got := d.X(q, ownShapes(r1.Tree)); got != 1 {
		t.Fatalf("X(leaf) = %g, want 1", got)
	}
}

func TestEvaluateScriptAcrossModels(t *testing.T) {
	sp := fixtures.Fig2Spec()
	r1 := fixtures.Fig2R1(sp)
	r2 := fixtures.Fig2R2(sp)
	res, err := Diff(r1, r2, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	script, _, err := res.Script()
	if err != nil {
		t.Fatal(err)
	}
	if got := EvaluateScript(script, cost.Unit{}); math.Abs(got-res.Distance) > 1e-9 {
		t.Fatalf("re-evaluating under the same model: %g != %g", got, res.Distance)
	}
	under := EvaluateScript(script, cost.Length{})
	lengthOpt, err := Distance(r1, r2, cost.Length{})
	if err != nil {
		t.Fatal(err)
	}
	if under < lengthOpt-1e-9 {
		t.Fatalf("a unit-optimal script cannot beat the length-optimal distance: %g < %g", under, lengthOpt)
	}
}

func TestPlanReduceReconstruction(t *testing.T) {
	// The deletion plan of any subtree, applied step by step, must
	// cost exactly X(v) and leave a branch-free subtree of the
	// planned size.
	sp := fixtures.Fig2SpecWithLoop()
	for _, m := range []cost.Model{cost.Unit{}, cost.Length{}} {
		// Fresh runs per model: executing the plan mutates the trees.
		runs := randRuns(t, sp, 5, 5)
		for _, r := range runs {
			d := newDeleter(m)
			shape := ownShapes(r.Tree)
			want := d.X(r.Tree, shape)
			var plan []*sptree.Node
			d.planDelete(r.Tree, shape, &plan)
			total := 0.0
			for _, v := range plan {
				total += m.PathCost(v.CountLeaves(), v.Src, v.Dst)
				// Detach children that were planned for deletion:
				// simulate by removing from parent when present.
				if v.Parent != nil {
					v.Parent.RemoveChild(v.Parent.ChildIndex(v))
				}
			}
			if math.Abs(total-want) > 1e-9 {
				t.Fatalf("%s: plan cost %g != X %g", m.Name(), total, want)
			}
		}
	}
}
