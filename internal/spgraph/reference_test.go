package spgraph

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/sptree"
)

// refEdge is an edge of the shrinking reduction multigraph together
// with the SP-tree it represents.
type refEdge struct {
	id       int
	from, to graph.NodeID
	tree     *sptree.Node
	dead     bool
}

type refReducer struct {
	edges map[int]*refEdge
	out   map[graph.NodeID]map[int]bool
	in    map[graph.NodeID]map[int]bool
	next  int
}

func (r *refReducer) add(from, to graph.NodeID, t *sptree.Node) *refEdge {
	e := &refEdge{id: r.next, from: from, to: to, tree: t}
	r.next++
	r.edges[e.id] = e
	if r.out[from] == nil {
		r.out[from] = make(map[int]bool)
	}
	if r.in[to] == nil {
		r.in[to] = make(map[int]bool)
	}
	r.out[from][e.id] = true
	r.in[to][e.id] = true
	return e
}

func (r *refReducer) remove(e *refEdge) {
	e.dead = true
	delete(r.edges, e.id)
	delete(r.out[e.from], e.id)
	delete(r.in[e.to], e.id)
}

// ReferenceDecompose is the map-based reducer Decompose replaced, kept
// as the oracle Decompose must match node for node: it reduces over
// node-ID-keyed maps of edge sets into a binary decomposition tree and
// compresses that with canonicalize.
func ReferenceDecompose(g *graph.Graph) (*sptree.Node, error) {
	s, t, err := g.CheckFlowNetwork()
	if err != nil {
		return nil, fmt.Errorf("spgraph: %w", err)
	}
	if !g.IsAcyclic() {
		return nil, fmt.Errorf("spgraph: graph has a cycle")
	}
	r := &refReducer{
		edges: make(map[int]*refEdge),
		out:   make(map[graph.NodeID]map[int]bool),
		in:    make(map[graph.NodeID]map[int]bool),
	}
	for _, e := range g.Edges() {
		r.add(e.From, e.To, sptree.NewQ(e, g.Label(e.From), g.Label(e.To)))
	}

	// Worklists: nodes to test for series reduction, endpoint pairs
	// to test for parallel reduction.
	nodeWork := make([]graph.NodeID, 0, g.NumNodes())
	nodeQueued := make(map[graph.NodeID]bool)
	pairWork := make([][2]graph.NodeID, 0, g.NumEdges())
	pairQueued := make(map[[2]graph.NodeID]bool)
	pushNode := func(n graph.NodeID) {
		if !nodeQueued[n] {
			nodeQueued[n] = true
			nodeWork = append(nodeWork, n)
		}
	}
	pushPair := func(a, b graph.NodeID) {
		p := [2]graph.NodeID{a, b}
		if !pairQueued[p] {
			pairQueued[p] = true
			pairWork = append(pairWork, p)
		}
	}
	for _, n := range g.Nodes() {
		pushNode(n)
	}
	for _, e := range g.Edges() {
		pushPair(e.From, e.To)
	}

	for len(nodeWork) > 0 || len(pairWork) > 0 {
		if len(pairWork) > 0 {
			p := pairWork[len(pairWork)-1]
			pairWork = pairWork[:len(pairWork)-1]
			pairQueued[p] = false
			r.parallelReduce(p[0], p[1], pushPair, pushNode)
			continue
		}
		n := nodeWork[len(nodeWork)-1]
		nodeWork = nodeWork[:len(nodeWork)-1]
		nodeQueued[n] = false
		if n == s || n == t {
			continue
		}
		r.seriesReduce(n, pushPair, pushNode)
	}

	if len(r.edges) != 1 {
		return nil, fmt.Errorf("spgraph: graph is not series-parallel (%d edges remain after reduction)", len(r.edges))
	}
	var last *refEdge
	for _, e := range r.edges {
		last = e
	}
	if last.from != s || last.to != t {
		return nil, fmt.Errorf("spgraph: reduction terminated at (%s,%s), want (%s,%s)", last.from, last.to, s, t)
	}
	root := canonicalize(last.tree)
	root.Finalize()
	return root, nil
}

// parallelReduce merges all parallel edges between (a, b) into one.
// Candidates are processed in edge-id order so decompositions are
// deterministic.
func (r *refReducer) parallelReduce(a, b graph.NodeID, pushPair func(x, y graph.NodeID), pushNode func(n graph.NodeID)) {
	var parallel []*refEdge
	for id := range r.out[a] {
		e := r.edges[id]
		if e != nil && e.to == b {
			parallel = append(parallel, e)
		}
	}
	if len(parallel) < 2 {
		return
	}
	sort.Slice(parallel, func(i, j int) bool { return parallel[i].id < parallel[j].id })
	trees := make([]*sptree.Node, len(parallel))
	for i, e := range parallel {
		trees[i] = e.tree
		r.remove(e)
	}
	merged := sptree.NewInternal(sptree.P, trees...)
	r.add(a, b, merged)
	// Endpoint degrees dropped; they may now be series-reducible.
	pushNode(a)
	pushNode(b)
}

// seriesReduce contracts n if it has exactly one incoming and one
// outgoing edge.
func (r *refReducer) seriesReduce(n graph.NodeID, pushPair func(x, y graph.NodeID), pushNode func(m graph.NodeID)) {
	if len(r.in[n]) != 1 || len(r.out[n]) != 1 {
		return
	}
	var ein, eout *refEdge
	for id := range r.in[n] {
		ein = r.edges[id]
	}
	for id := range r.out[n] {
		eout = r.edges[id]
	}
	if ein == nil || eout == nil || ein == eout {
		return
	}
	r.remove(ein)
	r.remove(eout)
	merged := sptree.NewInternal(sptree.S, ein.tree, eout.tree)
	r.add(ein.from, eout.to, merged)
	pushPair(ein.from, eout.to)
	pushNode(ein.from)
	pushNode(eout.to)
}

// canonicalize merges adjacent same-type S/S and P/P nodes of a binary
// decomposition tree and removes single-child S and P nodes, giving
// the canonical SP-tree of Section IV-A as a new tree.
func canonicalize(n *sptree.Node) *sptree.Node {
	if n.Type == sptree.Q {
		return sptree.NewQ(n.Edge, n.Src, n.Dst)
	}
	var kids []*sptree.Node
	for _, child := range n.Children {
		cc := canonicalize(child)
		if cc.Type == n.Type {
			kids = append(kids, cc.Children...)
		} else {
			kids = append(kids, cc)
		}
	}
	if len(kids) == 1 {
		return kids[0]
	}
	return sptree.NewInternal(n.Type, kids...)
}
