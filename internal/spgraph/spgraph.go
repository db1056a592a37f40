// Package spgraph recognizes directed series-parallel graphs and
// produces their canonical SP-tree decomposition (Valdes, Tarjan and
// Lawler; Section IV-A of Bao et al.).
//
// Recognition works by exhaustive series and parallel reduction: a
// node other than the terminals with in-degree and out-degree one is
// series-reduced, and two parallel edges between the same endpoints
// are parallel-reduced. A flow network is series-parallel iff the
// reductions terminate with the single edge (s, t). Each reduction
// builds its piece of the canonical SP-tree (unique up to reordering
// of P children) directly, absorbing the children of an operand of the
// same type.
package spgraph

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/sptree"
)

// reducer is the shrinking reduction multigraph over the node indices
// of g. Edge ids follow creation order: g's edges first, in g's order,
// then one per reduction. Each live edge carries the canonical SP-tree
// it stands for; a reduced-away edge carries nil.
type reducer struct {
	from, to []int32
	tree     []*sptree.Node
	out, in  [][]int32 // live edge ids at each node
	live     int
	nodes    []sptree.Node // every tree node, indexed by its ID
	used     int
	scratch  []int32

	// Worklists, popped last-in first-out: nodes to test for series
	// reduction, endpoint pairs to test for parallel reduction.
	nodeWork   []int32
	nodeQueued []bool
	pairWork   [][2]int32
	pairQueued map[[2]int32]bool
}

// Decompose returns the canonical SP-tree of g, or an error if g is
// not a series-parallel flow network. Q leaves carry the edges of g;
// every tree node carries the labels of its terminals.
func Decompose(g *graph.Graph) (*sptree.Node, error) {
	s, t, err := g.CheckFlowNetwork()
	if err != nil {
		return nil, fmt.Errorf("spgraph: %w", err)
	}
	if !g.IsAcyclic() {
		return nil, fmt.Errorf("spgraph: graph has a cycle")
	}
	root, err := Reduce(g, s, t)
	if err != nil {
		return nil, err
	}
	root.Finalize()
	return root, nil
}

// Reduce is Decompose for a graph the caller has already checked to be
// an acyclic flow network with source s and sink t. The tree is not
// finalized: every node's ID is its creation index, so Q leaf i carries
// Edges()[i] and ID i, internal nodes carry IDs from NumEdges() up to
// below 2·NumEdges(), and a caller can keep per-node facts in a slice.
// Parent pointers are not set.
func Reduce(g *graph.Graph, s, t graph.NodeID) (*sptree.Node, error) {
	m, n := g.NumEdges(), g.NumNodes()
	r := &reducer{
		from: make([]int32, m, 2*m), to: make([]int32, m, 2*m),
		tree: make([]*sptree.Node, m, 2*m), live: m,
		// A reduction replaces two or more live edges by one and
		// creates at most one tree node: m leaves and at most m-1
		// reductions fit.
		nodes: make([]sptree.Node, 2*m), used: m,
		nodeQueued: make([]bool, n), pairQueued: make(map[[2]int32]bool, m),
	}
	// adj[v] is node v's out list and adj[n+v] its in list. A list
	// never outgrows v's degree in g (a reduction at a node removes at
	// least as many of its edges as it adds), so all share one array.
	deg := make([]int, 2*n)
	for i := 0; i < m; i++ {
		u, v := g.Ends(i)
		deg[u]++
		deg[n+v]++
	}
	adj, buf := make([][]int32, 2*n), make([]int32, 2*m)
	for v, d := range deg {
		adj[v], buf = buf[:0:d], buf[d:]
	}
	r.out, r.in = adj[:n], adj[n:]
	for i := 0; i < m; i++ {
		u, v := g.Ends(i)
		r.nodes[i] = sptree.Node{Type: sptree.Q, Edge: g.EdgeAt(i), Src: g.LabelAt(u), Dst: g.LabelAt(v), ID: i}
		r.from[i], r.to[i], r.tree[i] = int32(u), int32(v), &r.nodes[i]
		r.out[u] = append(r.out[u], int32(i))
		r.in[v] = append(r.in[v], int32(i))
	}
	for v := 0; v < n; v++ {
		r.pushNode(int32(v))
	}
	for i := 0; i < m; i++ {
		r.pushPair(r.from[i], r.to[i])
	}
	si, ti := int32(g.NodeIndex(s)), int32(g.NodeIndex(t))
	for len(r.nodeWork) > 0 || len(r.pairWork) > 0 {
		if k := len(r.pairWork) - 1; k >= 0 {
			p := r.pairWork[k]
			r.pairWork, r.pairQueued[p] = r.pairWork[:k], false
			r.parallelReduce(p[0], p[1])
			continue
		}
		k := len(r.nodeWork) - 1
		v := r.nodeWork[k]
		r.nodeWork, r.nodeQueued[v] = r.nodeWork[:k], false
		if v != si && v != ti {
			r.seriesReduce(v)
		}
	}
	if r.live != 1 {
		return nil, fmt.Errorf("spgraph: graph is not series-parallel (%d edges remain after reduction)", r.live)
	}
	// Every reduction kills older edges only, so the newest edge is
	// the survivor; s and t keep an out- and an in-edge throughout, so
	// it runs from s to t.
	return r.tree[len(r.tree)-1], nil
}

func (r *reducer) pushNode(v int32) {
	if !r.nodeQueued[v] {
		r.nodeQueued[v] = true
		r.nodeWork = append(r.nodeWork, v)
	}
}

func (r *reducer) pushPair(a, b int32) {
	if p := [2]int32{a, b}; !r.pairQueued[p] {
		r.pairQueued[p] = true
		r.pairWork = append(r.pairWork, p)
	}
}

// merge replaces the live edges ids, all from a to b, by one carrying
// their composition of type typ. The tree stays canonical: an operand
// of type typ is spliced in child by child, and the first operand's
// node is reused when it has the type.
func (r *reducer) merge(typ sptree.Type, a, b int32, ids []int32) {
	first := r.tree[ids[0]]
	n, rest := first, ids[1:]
	if first.Type != typ {
		n, rest = &r.nodes[r.used], ids
		*n = sptree.Node{Type: typ, Children: make([]*sptree.Node, 0, len(ids)), Src: first.Src, ID: r.used}
		r.used++
	}
	for _, id := range rest {
		if t := r.tree[id]; t.Type == typ {
			n.Children = append(n.Children, t.Children...)
		} else {
			n.Children = append(n.Children, t)
		}
	}
	n.Dst = r.tree[ids[len(ids)-1]].Dst
	for _, id := range ids {
		r.tree[id] = nil
	}
	r.live -= len(ids) - 1
	id := int32(len(r.tree))
	r.from, r.to, r.tree = append(r.from, a), append(r.to, b), append(r.tree, n)
	r.out[a] = append(r.out[a], id)
	r.in[b] = append(r.in[b], id)
}

// parallelReduce merges all parallel edges between a and b into one.
// Candidates are merged in edge-id order so decompositions are
// deterministic.
func (r *reducer) parallelReduce(a, b int32) {
	par := r.scratch[:0]
	for _, id := range r.out[a] {
		if r.to[id] == b {
			par = append(par, id)
		}
	}
	if r.scratch = par; len(par) < 2 {
		return
	}
	slices.Sort(par)
	r.out[a] = slices.DeleteFunc(r.out[a], func(id int32) bool { return r.to[id] == b })
	r.in[b] = slices.DeleteFunc(r.in[b], func(id int32) bool { return r.from[id] == a })
	r.merge(sptree.P, a, b, par)
	// Endpoint degrees dropped; they may now be series-reducible.
	r.pushNode(a)
	r.pushNode(b)
}

// seriesReduce contracts v if it has exactly one incoming and one
// outgoing edge.
func (r *reducer) seriesReduce(v int32) {
	if len(r.in[v]) != 1 || len(r.out[v]) != 1 {
		return
	}
	ein, eout := r.in[v][0], r.out[v][0]
	a, b := r.from[ein], r.to[eout]
	r.out[a] = slices.DeleteFunc(r.out[a], func(id int32) bool { return id == ein })
	r.in[b] = slices.DeleteFunc(r.in[b], func(id int32) bool { return id == eout })
	r.in[v], r.out[v] = r.in[v][:0], r.out[v][:0]
	r.merge(sptree.S, a, b, []int32{ein, eout})
	r.pushPair(a, b)
	r.pushNode(a)
	r.pushNode(b)
}

// IsSP reports whether g is a series-parallel flow network.
func IsSP(g *graph.Graph) bool {
	_, err := Decompose(g)
	return err == nil
}

// ForbiddenMinor returns the 4-node specification graph of Theorem 1
// (s, v1, v2, t with edges s→v1, s→v2, v1→v2, v1→t, v2→t), the
// forbidden minor for directed acyclic SP-graphs, on which the
// workflow difference problem is already NP-hard.
func ForbiddenMinor() *graph.Graph {
	g := graph.New()
	for _, n := range []string{"s", "v1", "v2", "t"} {
		g.MustAddNode(graph.NodeID(n), n)
	}
	g.MustAddEdge("s", "v1")
	g.MustAddEdge("s", "v2")
	g.MustAddEdge("v1", "v2")
	g.MustAddEdge("v1", "t")
	g.MustAddEdge("v2", "t")
	return g
}
