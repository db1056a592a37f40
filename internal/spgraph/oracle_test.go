package spgraph_test

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/spgraph"
	"repro/internal/sptree"
)

// sameTree reports the first difference between two finalized trees,
// compared node for node: type, ID, edge, terminal labels, child order
// and parent pointers.
func sameTree(a, b, parentA, parentB *sptree.Node) string {
	switch {
	case a.Type != b.Type || a.ID != b.ID || a.Edge != b.Edge || a.Src != b.Src || a.Dst != b.Dst:
		return "node " + a.Type.String() + " " + a.Edge.String() + " differs from " + b.Type.String() + " " + b.Edge.String()
	case a.Parent != parentA || b.Parent != parentB:
		return "parent pointer differs at " + a.Edge.String()
	case len(a.Children) != len(b.Children):
		return "child count differs under " + a.Type.String()
	}
	for i := range a.Children {
		if d := sameTree(a.Children[i], b.Children[i], a, b); d != "" {
			return d
		}
	}
	return ""
}

// TestDecomposeMatchesReference runs the slice reducer and the
// map-based reference on 1,200 generated runs of four catalog
// workflows, and on a corrupted copy of each (one extra edge between
// random nodes, which is often not series-parallel or has a cycle):
// the trees must agree node for node and the errors word for word.
func TestDecomposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	compare := func(name string, i int, g *graph.Graph) {
		got, err := spgraph.Decompose(g)
		want, refErr := spgraph.ReferenceDecompose(g)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("%s run %d: error %v, reference %v", name, i, err, refErr)
		}
		if err != nil {
			return
		}
		if d := sameTree(got, want, nil, nil); d != "" {
			t.Fatalf("%s run %d: %s\ngot:\n%s\nwant:\n%s", name, i, d, got, want)
		}
	}
	for _, name := range []string{"PA", "EMBOSS", "MB", "PGAQ"} {
		sp, err := gen.Catalog(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
			if err != nil {
				t.Fatal(err)
			}
			compare(name, i, r.Graph)
			g := r.Graph.Clone()
			ns := g.Nodes()
			g.MustAddEdge(ns[rng.Intn(len(ns))], ns[rng.Intn(len(ns))])
			compare(name+" corrupted", i, g)
		}
	}
}
