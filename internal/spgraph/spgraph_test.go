package spgraph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sptree"
)

func TestDecomposeSingleEdge(t *testing.T) {
	g := graph.New()
	g.MustAddNode("s", "s")
	g.MustAddNode("t", "t")
	g.MustAddEdge("s", "t")
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Type != sptree.Q || tree.Src != "s" || tree.Dst != "t" {
		t.Fatalf("single edge should decompose to a Q leaf, got %s", tree)
	}
}

func TestDecomposeDiamond(t *testing.T) {
	g := graph.New()
	for _, n := range []string{"s", "a", "b", "t"} {
		g.MustAddNode(graph.NodeID(n), n)
	}
	g.MustAddEdge("s", "a")
	g.MustAddEdge("a", "t")
	g.MustAddEdge("s", "b")
	g.MustAddEdge("b", "t")
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Type != sptree.P || len(tree.Children) != 2 {
		t.Fatalf("diamond should be P of two series, got:\n%s", tree)
	}
	for _, c := range tree.Children {
		if c.Type != sptree.S || len(c.Children) != 2 {
			t.Fatalf("branch should be S of two edges, got:\n%s", c)
		}
	}
	if err := sptree.ValidateSpecTree(tree); err != nil {
		t.Fatalf("decomposition violates canonical invariants: %v", err)
	}
}

func TestDecomposeMultigraph(t *testing.T) {
	g := graph.New()
	g.MustAddNode("s", "s")
	g.MustAddNode("t", "t")
	g.MustAddEdge("s", "t")
	g.MustAddEdge("s", "t")
	g.MustAddEdge("s", "t")
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Type != sptree.P || len(tree.Children) != 3 {
		t.Fatalf("triple edge should be P with 3 leaves, got:\n%s", tree)
	}
}

func TestDecomposeRejectsForbiddenMinor(t *testing.T) {
	g := ForbiddenMinor()
	if _, err := Decompose(g); err == nil {
		t.Fatal("the N-graph must not decompose")
	}
	if IsSP(g) {
		t.Fatal("IsSP should reject the forbidden minor")
	}
}

func TestDecomposeRejectsCycle(t *testing.T) {
	g := graph.New()
	for _, n := range []string{"s", "a", "b", "t"} {
		g.MustAddNode(graph.NodeID(n), n)
	}
	g.MustAddEdge("s", "a")
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "a")
	g.MustAddEdge("b", "t")
	if _, err := Decompose(g); err == nil {
		t.Fatal("cyclic graph must be rejected")
	}
}

func TestDecomposeDeterministic(t *testing.T) {
	build := func() *graph.Graph {
		g := graph.New()
		for i := 0; i < 6; i++ {
			id := graph.NodeID(fmt.Sprint(i))
			g.MustAddNode(id, fmt.Sprint(i))
		}
		g.MustAddEdge("0", "1")
		g.MustAddEdge("1", "5")
		g.MustAddEdge("0", "2")
		g.MustAddEdge("2", "5")
		g.MustAddEdge("0", "3")
		g.MustAddEdge("3", "4")
		g.MustAddEdge("4", "5")
		return g
	}
	t1, err := Decompose(build())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		t2, err := Decompose(build())
		if err != nil {
			t.Fatal(err)
		}
		if t1.Signature() != t2.Signature() {
			t.Fatal("decomposition is not deterministic")
		}
	}
}

// randomSP builds a random SP-graph by structural recursion and
// returns it; used to round-trip through Decompose.
func randomSP(rng *rand.Rand, edgeBudget int) *graph.Graph {
	g := graph.New()
	next := 0
	newNode := func() graph.NodeID {
		id := graph.NodeID(fmt.Sprintf("n%d", next))
		g.MustAddNode(id, string(id))
		next++
		return id
	}
	var build func(s, t graph.NodeID, budget int)
	build = func(s, t graph.NodeID, budget int) {
		if budget <= 1 {
			g.MustAddEdge(s, t)
			return
		}
		if rng.Intn(2) == 0 { // series
			mid := newNode()
			left := 1 + rng.Intn(budget-1)
			build(s, mid, left)
			build(mid, t, budget-left)
		} else { // parallel
			left := 1 + rng.Intn(budget-1)
			build(s, t, left)
			build(s, t, budget-left)
		}
	}
	s, t := newNode(), newNode()
	build(s, t, edgeBudget)
	return g
}

func TestDecomposeRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		g := randomSP(rng, 3+rng.Intn(60))
		tree, err := Decompose(g)
		if err != nil {
			t.Fatalf("trial %d: random SP graph rejected: %v\n%s", trial, err, g)
		}
		if got := tree.CountLeaves(); got != g.NumEdges() {
			t.Fatalf("trial %d: tree has %d leaves, graph has %d edges", trial, got, g.NumEdges())
		}
		if err := sptree.ValidateSpecTree(tree); err != nil {
			t.Fatalf("trial %d: canonical invariants violated: %v", trial, err)
		}
		// Every edge appears exactly once as a leaf.
		seen := map[graph.Edge]bool{}
		for _, leaf := range tree.Leaves() {
			if seen[leaf.Edge] {
				t.Fatalf("trial %d: duplicate leaf %s", trial, leaf.Edge)
			}
			seen[leaf.Edge] = true
			if leaf.Src != g.Label(leaf.Edge.From) || leaf.Dst != g.Label(leaf.Edge.To) {
				t.Fatalf("trial %d: leaf terminals disagree with edge", trial)
			}
		}
		s, _ := g.Source()
		var tt graph.NodeID // the sink
		for _, v := range g.Nodes() {
			if g.OutDegree(v) == 0 {
				tt = v
			}
		}
		if tree.Src != g.Label(s) || tree.Dst != g.Label(tt) {
			t.Fatalf("trial %d: root terminals (%s,%s) don't match graph (%s,%s)",
				trial, tree.Src, tree.Dst, g.Label(s), g.Label(tt))
		}
	}
}

func TestDecomposeRejectsNearlySP(t *testing.T) {
	// An SP graph plus one cross edge that breaks series-parallelism.
	g := graph.New()
	for _, n := range []string{"s", "a", "b", "c", "d", "t"} {
		g.MustAddNode(graph.NodeID(n), n)
	}
	// Two parallel chains s->a->b->t and s->c->d->t ...
	g.MustAddEdge("s", "a")
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "t")
	g.MustAddEdge("s", "c")
	g.MustAddEdge("c", "d")
	g.MustAddEdge("d", "t")
	// ... with a cross edge a->d.
	g.MustAddEdge("a", "d")
	if _, err := Decompose(g); err == nil {
		t.Fatal("cross-linked graph must not be series-parallel")
	}
}
