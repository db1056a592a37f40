// Package wfrun implements valid runs of SP-workflow specifications:
// the execution function f′ of Section III-D/VI (series, parallel,
// fork and loop executions), materialization of run trees into run
// graphs (fork copies share their terminals, loop iterations are
// chained by implicit edges), and the deterministic tree execution
// function f″ of Algorithms 2 and 5 that derives the annotated SP-tree
// of a run given as a bare graph.
package wfrun

import (
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/sptree"
)

// Decider supplies the nondeterministic choices of the execution
// function f′: which parallel branches to take, how many fork copies
// to replicate, and how many loop iterations to execute.
type Decider interface {
	// ParallelSubset returns a nonempty set of child indices of the
	// specification P node to execute.
	ParallelSubset(p *sptree.Node) []int
	// ForkCopies returns the number (>= 1) of copies a fork
	// execution of the specification F node replicates.
	ForkCopies(f *sptree.Node) int
	// LoopIterations returns the number (>= 1) of iterations a loop
	// execution of the specification L node performs.
	LoopIterations(l *sptree.Node) int
}

// FullDecider executes every parallel branch once and replicates a
// single fork copy and a single loop iteration: the minimal "take
// everything once" run.
type FullDecider struct{}

// ParallelSubset implements Decider.
func (FullDecider) ParallelSubset(p *sptree.Node) []int {
	all := make([]int, len(p.Children))
	for i := range all {
		all[i] = i
	}
	return all
}

// ForkCopies implements Decider.
func (FullDecider) ForkCopies(*sptree.Node) int { return 1 }

// LoopIterations implements Decider.
func (FullDecider) LoopIterations(*sptree.Node) int { return 1 }

// Run is a valid run of a specification: an annotated SP-tree aligned
// to the specification tree, together with its materialized run graph.
// Node IDs in the graph are label instances ("3b"); tree Q leaves
// carry run-graph edges. The tree omits the implicit loop edges, which
// exist only in the graph.
//
// A run's tree is immutable once the run has been diffed: the first
// diff caches the tree's shape IDs and class ranks with the run (see
// Prepare). Replacing Tree is allowed and recomputes them; editing the
// nodes in place is not.
type Run struct {
	Spec  *spec.Spec
	Tree  *sptree.Node
	Graph *graph.Graph

	// ImplicitEdges are the loop-chaining edges (t(H), s(H)) present
	// in the graph but absent from the tree.
	ImplicitEdges []graph.Edge

	prep atomic.Pointer[sptree.Prepared]
}

// Prepare returns the diff-ready data of two runs of one specification
// in one shape generation (sptree.Shapes.Prepare). Each run's data is
// computed on first use, race-free, and cached with the run, so it is
// collected with the run and costs nothing on a load that never diffs.
func Prepare(r1, r2 *Run) (*sptree.Prepared, *sptree.Prepared) {
	return r1.Spec.Shapes().Prepare(r1.Tree, &r1.prep, r2.Tree, &r2.prep)
}

// namer allocates unique node-instance IDs per label: 1 → "1a", "1b",
// … "1z", "1a1", "1a2", …
type namer struct {
	seq map[string]int
}

func newNamer() *namer { return &namer{seq: make(map[string]int)} }

func (nm *namer) next(label string) graph.NodeID {
	i := nm.seq[label]
	nm.seq[label]++
	if i < 26 {
		return graph.NodeID(fmt.Sprintf("%s%c", label, 'a'+i))
	}
	return graph.NodeID(fmt.Sprintf("%sa%d", label, i-25))
}

// Execute produces a valid run of sp by applying the execution
// function f′ with choices drawn from d. The resulting run carries
// both the annotated run tree and the materialized graph.
func Execute(sp *spec.Spec, d Decider) (*Run, error) {
	r := &Run{Spec: sp, Graph: graph.New()}
	nm := newNamer()
	src := nm.next(sp.Tree.Src)
	dst := nm.next(sp.Tree.Dst)
	r.Graph.MustAddNode(src, sp.Tree.Src)
	r.Graph.MustAddNode(dst, sp.Tree.Dst)
	root, err := r.execute(sp.Tree, d, nm, src, dst)
	if err != nil {
		return nil, err
	}
	r.Tree = root
	r.Tree.Finalize()
	if err := sptree.ValidateRunTree(r.Tree, sp.Tree); err != nil {
		return nil, fmt.Errorf("wfrun: execution produced an invalid run tree: %w", err)
	}
	return r, nil
}

func (r *Run) execute(tg *sptree.Node, d Decider, nm *namer, src, dst graph.NodeID) (*sptree.Node, error) {
	switch tg.Type {
	case sptree.Q:
		e := r.Graph.MustAddEdge(src, dst)
		n := sptree.NewQ(e, tg.Src, tg.Dst)
		n.Spec = tg
		return n, nil

	case sptree.S:
		bounds := make([]graph.NodeID, len(tg.Children)+1)
		bounds[0] = src
		bounds[len(tg.Children)] = dst
		for i := 1; i < len(tg.Children); i++ {
			label := tg.Children[i].Src
			id := nm.next(label)
			r.Graph.MustAddNode(id, label)
			bounds[i] = id
		}
		n := &sptree.Node{Type: sptree.S, Spec: tg, Src: tg.Src, Dst: tg.Dst}
		for i, c := range tg.Children {
			child, err := r.execute(c, d, nm, bounds[i], bounds[i+1])
			if err != nil {
				return nil, err
			}
			n.Adopt(child)
		}
		return n, nil

	case sptree.P:
		subset := d.ParallelSubset(tg)
		if len(subset) == 0 {
			return nil, fmt.Errorf("wfrun: decider chose an empty parallel subset")
		}
		seen := make(map[int]bool, len(subset))
		n := &sptree.Node{Type: sptree.P, Spec: tg, Src: tg.Src, Dst: tg.Dst}
		for _, i := range subset {
			if i < 0 || i >= len(tg.Children) || seen[i] {
				return nil, fmt.Errorf("wfrun: decider chose invalid parallel subset %v", subset)
			}
			seen[i] = true
			child, err := r.execute(tg.Children[i], d, nm, src, dst)
			if err != nil {
				return nil, err
			}
			n.Adopt(child)
		}
		return n, nil

	case sptree.F:
		copies := d.ForkCopies(tg)
		if copies < 1 {
			return nil, fmt.Errorf("wfrun: decider chose %d fork copies", copies)
		}
		n := &sptree.Node{Type: sptree.F, Spec: tg, Src: tg.Src, Dst: tg.Dst}
		for i := 0; i < copies; i++ {
			child, err := r.execute(tg.Children[0], d, nm, src, dst)
			if err != nil {
				return nil, err
			}
			n.Adopt(child)
		}
		return n, nil

	case sptree.L:
		iters := d.LoopIterations(tg)
		if iters < 1 {
			return nil, fmt.Errorf("wfrun: decider chose %d loop iterations", iters)
		}
		n := &sptree.Node{Type: sptree.L, Spec: tg, Src: tg.Src, Dst: tg.Dst}
		iterSrc := src
		for i := 0; i < iters; i++ {
			iterDst := dst
			if i < iters-1 {
				iterDst = nm.next(tg.Dst)
				r.Graph.MustAddNode(iterDst, tg.Dst)
			}
			child, err := r.execute(tg.Children[0], d, nm, iterSrc, iterDst)
			if err != nil {
				return nil, err
			}
			n.Adopt(child)
			if i < iters-1 {
				nextSrc := nm.next(tg.Src)
				r.Graph.MustAddNode(nextSrc, tg.Src)
				imp := r.Graph.MustAddEdge(iterDst, nextSrc)
				r.ImplicitEdges = append(r.ImplicitEdges, imp)
				iterSrc = nextSrc
			}
		}
		return n, nil
	}
	return nil, fmt.Errorf("wfrun: unknown specification node type %s", tg.Type)
}

// EdgeRefs returns, for each run edge in graph order, the
// specification edge it instantiates, read off the annotated tree: the
// edgeRef argument Derive needs to disambiguate runs of multigraph
// specifications. Implicit loop edges get the zero Edge (they
// instantiate no specification edge).
func (r *Run) EdgeRefs() []graph.Edge {
	byEdge := make(map[graph.Edge]graph.Edge, r.Graph.NumEdges())
	r.Tree.Walk(func(n *sptree.Node) bool {
		if n.Type == sptree.Q && n.Spec != nil {
			byEdge[n.Edge] = n.Spec.Edge
		}
		return true
	})
	refs := make([]graph.Edge, r.Graph.NumEdges())
	for i := range refs {
		refs[i] = byEdge[r.Graph.EdgeAt(i)]
	}
	return refs
}

// LeafCounts tallies the run's executed instances per specification
// leaf index: how many run edges instantiate each specification edge.
// Live.Counts keeps the same histogram while a run streams in.
func (r *Run) LeafCounts() []int {
	_, total := r.Spec.Interval(r.Spec.Tree)
	counts := make([]int, total)
	r.Tree.Walk(func(n *sptree.Node) bool {
		if n.Type == sptree.Q && n.Spec != nil {
			if i, ok := r.Spec.LeafIndex(n.Spec.Edge); ok {
				counts[i]++
			}
		}
		return true
	})
	return counts
}

// NumEdges returns the total number of edges of the run graph,
// including implicit loop edges (the size measure used throughout the
// paper's evaluation).
func (r *Run) NumEdges() int { return r.Graph.NumEdges() }

// NumNodes returns the number of node instances in the run graph.
func (r *Run) NumNodes() int { return r.Graph.NumNodes() }

// Validate re-checks all run invariants: the tree aligns with the
// specification tree, the graph is an acyclic flow network, and the
// label homomorphism into the specification (extended with the loop
// back edges) holds.
func (r *Run) Validate() error {
	if err := sptree.ValidateRunTree(r.Tree, r.Spec.Tree); err != nil {
		return err
	}
	if _, _, err := r.Graph.CheckFlowNetwork(); err != nil {
		return err
	}
	if !r.Graph.IsAcyclic() {
		return fmt.Errorf("wfrun: run graph has a cycle")
	}
	return checkHomomorphism(r.Graph, r.Spec)
}

// checkHomomorphism verifies the label homomorphism of Section III-B,
// where the specification edge set is extended with the implicit back
// edge (t(H), s(H)) of every loop subgraph H ∈ L.
func checkHomomorphism(run *graph.Graph, sp *spec.Spec) error {
	for i := 0; i < run.NumEdges(); i++ {
		u, v := run.Ends(i)
		from, to := run.LabelAt(u), run.LabelAt(v)
		if cands, loopBack := sp.LabelPair(from, to); len(cands) == 0 && !loopBack {
			return noImage(run.EdgeAt(i), from, to)
		}
	}
	return nil
}
