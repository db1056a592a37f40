package wfrun

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sptree"
)

// TestDeriveRobustAgainstCorruption mutates valid run graphs at random
// (dropping edges, dropping nodes, adding label-respecting edges) and
// feeds them to Derive. The requirement is totality: Derive must
// either reject the graph with an error or return a run that passes
// full validation — never panic and never accept an invalid run.
func TestDeriveRobustAgainstCorruption(t *testing.T) {
	sp := testSpec(t, true)
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 300; trial++ {
		r, err := Execute(sp, &randDecider{rng: rng, maxCopies: 3, maxIter: 3})
		if err != nil {
			t.Fatal(err)
		}
		g := r.Graph.Clone()
		mutations := 1 + rng.Intn(3)
		for m := 0; m < mutations; m++ {
			switch rng.Intn(3) {
			case 0: // drop a random edge
				if n := g.NumEdges(); n > 0 {
					g = without(g, rng.Intn(n), "")
				}
			case 1: // drop a random node with its edges
				ns := g.Nodes()
				if len(ns) > 0 {
					g = without(g, -1, ns[rng.Intn(len(ns))])
				}
			case 2: // add an edge between random existing nodes
				ns := g.Nodes()
				if len(ns) >= 2 {
					a := ns[rng.Intn(len(ns))]
					b := ns[rng.Intn(len(ns))]
					if a != b {
						g.MustAddEdge(a, b)
					}
				}
			}
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: Derive panicked on corrupted graph: %v\n%s", trial, p, g)
				}
			}()
			got, err := Derive(sp, g, nil)
			if err != nil {
				return // rejected: fine
			}
			if verr := got.Validate(); verr != nil {
				t.Fatalf("trial %d: Derive accepted an invalid run: %v\n%s", trial, verr, g)
			}
		}()
	}
}

// without returns a copy of g lacking edge Edges()[edge] (none if
// edge is -1) and node (none if empty) with the node's edges.
func without(g *graph.Graph, edge int, node graph.NodeID) *graph.Graph {
	c := graph.New()
	for _, n := range g.Nodes() {
		if n != node {
			c.MustAddNode(n, g.Label(n))
		}
	}
	for i, e := range g.Edges() {
		if i != edge && e.From != node && e.To != node {
			c.MustAddEdge(e.From, e.To)
		}
	}
	return c
}

// TestExecutePanicsNever drives Execute with adversarial deciders that
// return out-of-range values; Execute must return errors, not panic.
func TestExecutePanicsNever(t *testing.T) {
	sp := testSpec(t, true)
	// Out-of-range parallel subset.
	bad := deciderFuncs{
		par:  func(p int) []int { return []int{99} },
		fork: func() int { return 1 },
		loop: func() int { return 1 },
	}
	if _, err := Execute(sp, bad); err == nil {
		t.Fatal("out-of-range subset must error")
	}
	// Negative fork copies.
	bad2 := deciderFuncs{
		par:  func(p int) []int { return []int{0} },
		fork: func() int { return -1 },
		loop: func() int { return 1 },
	}
	if _, err := Execute(sp, bad2); err == nil {
		t.Fatal("negative copies must error")
	}
	// Zero loop iterations.
	bad3 := deciderFuncs{
		par:  func(p int) []int { return []int{0} },
		fork: func() int { return 1 },
		loop: func() int { return 0 },
	}
	if _, err := Execute(sp, bad3); err == nil {
		t.Fatal("zero iterations must error")
	}
}

type deciderFuncs struct {
	par  func(nChildren int) []int
	fork func() int
	loop func() int
}

func (d deciderFuncs) ParallelSubset(p *sptree.Node) []int { return d.par(len(p.Children)) }
func (d deciderFuncs) ForkCopies(*sptree.Node) int         { return d.fork() }
func (d deciderFuncs) LoopIterations(*sptree.Node) int     { return d.loop() }
