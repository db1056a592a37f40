package wfrun

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/sptree"
)

// testSpec builds the Fig. 2 specification with forks and (optionally)
// the loop over the middle block.
func testSpec(t *testing.T, withLoop bool) *spec.Spec {
	t.Helper()
	g := graph.New()
	for i := 1; i <= 7; i++ {
		id := graph.NodeID(fmt.Sprint(i))
		g.MustAddNode(id, fmt.Sprint(i))
	}
	for _, e := range [][2]string{
		{"1", "2"}, {"2", "3"}, {"3", "6"}, {"2", "4"}, {"4", "6"},
		{"2", "5"}, {"5", "6"}, {"6", "7"},
	} {
		g.MustAddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	es := func(pairs ...[2]string) spec.EdgeSet {
		var out spec.EdgeSet
		for _, p := range pairs {
			out = append(out, graph.Edge{From: graph.NodeID(p[0]), To: graph.NodeID(p[1])})
		}
		return out
	}
	forks := []spec.EdgeSet{
		es([2]string{"2", "3"}, [2]string{"3", "6"}),
		es([2]string{"2", "4"}, [2]string{"4", "6"}),
		es([2]string{"2", "5"}, [2]string{"5", "6"}),
	}
	var loops []spec.EdgeSet
	if withLoop {
		loops = []spec.EdgeSet{es([2]string{"2", "3"}, [2]string{"3", "6"},
			[2]string{"2", "4"}, [2]string{"4", "6"},
			[2]string{"2", "5"}, [2]string{"5", "6"})}
	}
	sp, err := spec.New(g, forks, loops)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// scriptedDecider drives Execute with fixed choices per specification
// node type, cycling through the provided sequences.
type scriptedDecider struct {
	subsets map[*sptree.Node][][]int
	copies  map[*sptree.Node][]int
	iters   map[*sptree.Node][]int
}

func (d *scriptedDecider) pop(m map[*sptree.Node][]int, n *sptree.Node, def int) int {
	if vs := m[n]; len(vs) > 0 {
		v := vs[0]
		m[n] = vs[1:]
		return v
	}
	return def
}

func (d *scriptedDecider) ParallelSubset(p *sptree.Node) []int {
	if vs := d.subsets[p]; len(vs) > 0 {
		v := vs[0]
		d.subsets[p] = vs[1:]
		return v
	}
	all := make([]int, len(p.Children))
	for i := range all {
		all[i] = i
	}
	return all
}
func (d *scriptedDecider) ForkCopies(f *sptree.Node) int     { return d.pop(d.copies, f, 1) }
func (d *scriptedDecider) LoopIterations(l *sptree.Node) int { return d.pop(d.iters, l, 1) }

func TestExecuteFullDecider(t *testing.T) {
	sp := testSpec(t, false)
	r, err := Execute(sp, FullDecider{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// All three branches once: 8 edges, no implicit edges.
	if r.NumEdges() != 8 {
		t.Fatalf("NumEdges = %d, want 8", r.NumEdges())
	}
	if len(r.ImplicitEdges) != 0 {
		t.Fatalf("unexpected implicit edges: %v", r.ImplicitEdges)
	}
	if r.Tree.CountLeaves() != 8 {
		t.Fatalf("tree leaves = %d, want 8", r.Tree.CountLeaves())
	}
}

func TestExecuteWithLoopIterations(t *testing.T) {
	sp := testSpec(t, true)
	var loopNode *sptree.Node
	sp.Tree.Walk(func(n *sptree.Node) bool {
		if n.Type == sptree.L {
			loopNode = n
		}
		return true
	})
	d := &scriptedDecider{
		subsets: map[*sptree.Node][][]int{},
		copies:  map[*sptree.Node][]int{},
		iters:   map[*sptree.Node][]int{loopNode: {3}},
	}
	r, err := Execute(sp, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(r.ImplicitEdges) != 2 {
		t.Fatalf("implicit edges = %d, want 2 (three iterations)", len(r.ImplicitEdges))
	}
	// Implicit edges run from a node labeled 6 to a node labeled 2.
	for _, e := range r.ImplicitEdges {
		if r.Graph.Label(e.From) != "6" || r.Graph.Label(e.To) != "2" {
			t.Fatalf("implicit edge %s has labels (%s,%s)", e, r.Graph.Label(e.From), r.Graph.Label(e.To))
		}
	}
	// 3 iterations * 6 middle edges + 2 outer edges + 2 implicit.
	if r.NumEdges() != 3*6+2+2 {
		t.Fatalf("NumEdges = %d, want 22", r.NumEdges())
	}
	// The loop node in the run tree has three ordered iterations.
	var runLoop *sptree.Node
	r.Tree.Walk(func(n *sptree.Node) bool {
		if n.Type == sptree.L {
			runLoop = n
		}
		return true
	})
	if runLoop == nil || len(runLoop.Children) != 3 {
		t.Fatalf("run loop iterations wrong:\n%s", r.Tree)
	}
}

func TestExecuteForkCopiesShareTerminals(t *testing.T) {
	sp := testSpec(t, false)
	var fork236 *sptree.Node
	sp.Tree.Walk(func(n *sptree.Node) bool {
		if n.Type != sptree.F || fork236 != nil {
			return true
		}
		for _, leaf := range n.Leaves() {
			if leaf.Edge.From == "2" && leaf.Edge.To == "3" {
				fork236 = n
			}
		}
		return true
	})
	d := &scriptedDecider{
		subsets: map[*sptree.Node][][]int{},
		copies:  map[*sptree.Node][]int{fork236: {3}},
		iters:   map[*sptree.Node][]int{},
	}
	r, err := Execute(sp, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// One label-2 instance and one label-6 instance despite 3 copies.
	count := map[string]int{}
	for _, n := range r.Graph.Nodes() {
		count[r.Graph.Label(n)]++
	}
	if count["2"] != 1 || count["6"] != 1 {
		t.Fatalf("fork copies must share terminals: %v", count)
	}
	if count["3"] != 3 {
		t.Fatalf("expected 3 copies of module 3, got %d", count["3"])
	}
}

func TestDeciderErrors(t *testing.T) {
	sp := testSpec(t, false)
	var pnode *sptree.Node
	sp.Tree.Walk(func(n *sptree.Node) bool {
		if n.Type == sptree.P && pnode == nil {
			pnode = n
		}
		return true
	})
	bad := &scriptedDecider{
		subsets: map[*sptree.Node][][]int{pnode: {{}}},
		copies:  map[*sptree.Node][]int{},
		iters:   map[*sptree.Node][]int{},
	}
	if _, err := Execute(sp, bad); err == nil {
		t.Fatal("empty parallel subset must be rejected")
	}
	bad2 := &scriptedDecider{
		subsets: map[*sptree.Node][][]int{pnode: {{0, 0}}},
		copies:  map[*sptree.Node][]int{},
		iters:   map[*sptree.Node][]int{},
	}
	if _, err := Execute(sp, bad2); err == nil {
		t.Fatal("duplicate parallel indices must be rejected")
	}
}

// randDecider makes random valid choices.
type randDecider struct {
	rng                *rand.Rand
	maxCopies, maxIter int
}

func (d *randDecider) ParallelSubset(p *sptree.Node) []int {
	var subset []int
	for i := range p.Children {
		if d.rng.Intn(100) < 70 {
			subset = append(subset, i)
		}
	}
	if len(subset) == 0 {
		subset = []int{d.rng.Intn(len(p.Children))}
	}
	return subset
}
func (d *randDecider) ForkCopies(*sptree.Node) int     { return 1 + d.rng.Intn(d.maxCopies) }
func (d *randDecider) LoopIterations(*sptree.Node) int { return 1 + d.rng.Intn(d.maxIter) }

func TestDeriveRoundTripRandom(t *testing.T) {
	// For randomly executed runs, Derive(materialized graph) must
	// produce a valid annotated tree over the same graph. (The tree
	// need not be identical — a bare graph does not always determine
	// the fork structure — but it must be a valid run tree whose
	// leaves are exactly the non-implicit run edges.)
	for _, withLoop := range []bool{false, true} {
		sp := testSpec(t, withLoop)
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 40; trial++ {
			r, err := Execute(sp, &randDecider{rng: rng, maxCopies: 3, maxIter: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			r2, err := Derive(sp, r.Graph, nil)
			if err != nil {
				t.Fatalf("trial %d (loop=%v): derive failed: %v\ngraph: %s\ntree:\n%s",
					trial, withLoop, err, r.Graph, r.Tree)
			}
			if err := r2.Validate(); err != nil {
				t.Fatalf("trial %d: derived run invalid: %v", trial, err)
			}
			// Leaf edges of the derived tree = non-implicit edges.
			wantLeaves := r.Graph.NumEdges() - len(r2.ImplicitEdges)
			if got := r2.Tree.CountLeaves(); got != wantLeaves {
				t.Fatalf("trial %d: derived tree has %d leaves, want %d", trial, got, wantLeaves)
			}
			if len(r2.ImplicitEdges) != len(r.ImplicitEdges) {
				t.Fatalf("trial %d: implicit edge count %d, want %d",
					trial, len(r2.ImplicitEdges), len(r.ImplicitEdges))
			}
		}
	}
}

func TestDeriveRejectsForeignGraph(t *testing.T) {
	sp := testSpec(t, false)
	g := graph.New()
	g.MustAddNode("xa", "x")
	g.MustAddNode("ya", "y")
	g.MustAddEdge("xa", "ya")
	if _, err := Derive(sp, g, nil); err == nil {
		t.Fatal("foreign graph must be rejected")
	}
}

func TestDeriveRejectsPartialRun(t *testing.T) {
	sp := testSpec(t, false)
	// Missing the (6,7) tail: node 6a is a second sink.
	g := graph.New()
	for _, n := range []struct{ id, label string }{
		{"1a", "1"}, {"2a", "2"}, {"3a", "3"}, {"6a", "6"},
	} {
		g.MustAddNode(graph.NodeID(n.id), n.label)
	}
	g.MustAddEdge("1a", "2a")
	g.MustAddEdge("2a", "3a")
	g.MustAddEdge("3a", "6a")
	if _, err := Derive(sp, g, nil); err == nil {
		t.Fatal("truncated run must be rejected")
	}
}

func TestDeriveAmbiguousMultigraphNeedsRefs(t *testing.T) {
	g := graph.New()
	g.MustAddNode("s", "s")
	g.MustAddNode("t", "t")
	e0 := g.MustAddEdge("s", "t")
	g.MustAddEdge("s", "t")
	sp, err := spec.New(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := graph.New()
	run.MustAddNode("sa", "s")
	run.MustAddNode("ta", "t")
	run.MustAddEdge("sa", "ta")
	run.MustAddEdge("sa", "ta")
	if _, err := Derive(sp, run, nil); err == nil {
		t.Fatal("ambiguous parallel edges must require references")
	}
	refs := []graph.Edge{e0, {From: "s", To: "t", Key: 1}}
	r, err := Derive(sp, run, refs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tree.CountLeaves() != 2 {
		t.Fatalf("leaves = %d, want 2", r.Tree.CountLeaves())
	}
}

func TestNamer(t *testing.T) {
	nm := newNamer()
	if id := nm.next("3"); id != "3a" {
		t.Fatalf("first instance = %s, want 3a", id)
	}
	if id := nm.next("3"); id != "3b" {
		t.Fatalf("second instance = %s, want 3b", id)
	}
	for i := 0; i < 24; i++ {
		nm.next("3")
	}
	if id := nm.next("3"); id != "3a1" {
		t.Fatalf("27th instance = %s, want 3a1", id)
	}
}

func TestExecuteDeterministicForFullDecider(t *testing.T) {
	sp := testSpec(t, true)
	a, err := Execute(sp, FullDecider{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(sp, FullDecider{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Tree.Signature() != b.Tree.Signature() {
		t.Fatal("Execute not deterministic under FullDecider")
	}
	if a.Graph.String() != b.Graph.String() {
		t.Fatal("materialization not deterministic")
	}
}
