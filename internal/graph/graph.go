// Package graph provides node-labeled directed multigraphs and the
// flow-network predicates used by the workflow model of Bao et al.
// (Definition 3.1): a flow network is a directed graph with a unique
// source, a unique sink, and every node on some source-sink path.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node within a Graph. IDs are arbitrary non-empty
// strings; in specifications they coincide with the (unique) labels, in
// runs they are label instances such as "3b".
type NodeID string

// Edge is a directed edge between two nodes. Key disambiguates parallel
// edges between the same endpoints (SP-graphs are multigraphs); for
// simple graphs Key is 0.
type Edge struct {
	From NodeID
	To   NodeID
	Key  int
}

// String renders the edge as "(u,v)" or "(u,v)#k" for parallel edges.
func (e Edge) String() string {
	if e.Key == 0 {
		return fmt.Sprintf("(%s,%s)", e.From, e.To)
	}
	return fmt.Sprintf("(%s,%s)#%d", e.From, e.To, e.Key)
}

// Graph is a node-labeled directed multigraph. Nodes and edges are
// numbered in insertion order: node v is Nodes()[v], edge i is
// Edges()[i], and the index accessors (NodeIndex, LabelAt, EdgeAt,
// Ends) let a caller keep per-node and per-edge facts in slices. The
// zero value is an empty graph ready to use.
//
// A graph made by Build keeps no map from node IDs to indices until
// AddNode or AddEdge needs one; until then a lookup by ID scans the
// nodes, so a caller that visits every node should use the index
// accessors.
type Graph struct {
	ids    []NodeID
	labels []string
	index  map[NodeID]int32 // nil until a mutation needs it
	edges  []Edge
	ends   [][2]int32 // node indices of each edge's endpoints
	out    [][]int32  // per node, its outgoing edges' indices
	in     [][]int32  // per node, its incoming edges' indices
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Build returns the graph whose node v has ID ids[v] and label
// labels[v], and whose edge i runs from node ends[i][0] to node
// ends[i][1], keyed exactly as AddEdge calls in that order would key
// them. It takes ownership of the three slices and checks nothing: the
// caller guarantees distinct non-empty IDs, equal lengths of ids and
// labels, and endpoints that index ids. Every node's edge lists are
// cut at their exact size from one array shared by the whole graph.
func Build(ids []NodeID, labels []string, ends [][2]int32) *Graph {
	n := len(ids)
	g := &Graph{ids: ids, labels: labels, ends: ends, edges: make([]Edge, len(ends))}
	g.out, g.in = make([][]int32, n), make([][]int32, n)
	// Count each degree in the length of a list spanning the whole
	// arena, then cut every list to a span of its own.
	arena := make([]int32, 2*len(ends))
	for v := range ids {
		g.out[v], g.in[v] = arena[:0], arena[:0]
	}
	for _, uv := range ends {
		g.out[uv[0]] = g.out[uv[0]][:len(g.out[uv[0]])+1]
		g.in[uv[1]] = g.in[uv[1]][:len(g.in[uv[1]])+1]
	}
	for _, lists := range [2][][]int32{g.out, g.in} {
		for v, l := range lists {
			d := len(l)
			lists[v], arena = arena[:0:d], arena[d:]
		}
	}
	for i, uv := range ends {
		u, v := uv[0], uv[1]
		g.edges[i] = Edge{From: ids[u], To: ids[v], Key: g.nextKey(u, v)}
		g.out[u] = append(g.out[u], int32(i))
		g.in[v] = append(g.in[v], int32(i))
	}
	return g
}

// nextKey returns the key of a new edge from node u to node v: one
// past the key of the newest such edge, or 0 if there is none. It
// scans the shorter of u's outgoing and v's incoming list from its
// newest end, so a high fan-out node costs no more per edge than the
// fan-in of the edge's other end.
func (g *Graph) nextKey(u, v int32) int {
	list := g.out[u]
	if len(g.in[v]) < len(list) {
		list = g.in[v]
	}
	for k := len(list) - 1; k >= 0; k-- {
		if e := list[k]; g.ends[e] == [2]int32{u, v} {
			return g.edges[e].Key + 1
		}
	}
	return 0
}

// lookup returns the index of node id.
func (g *Graph) lookup(id NodeID) (int32, bool) {
	if g.index == nil {
		for v, n := range g.ids {
			if n == id {
				return int32(v), true
			}
		}
		return -1, false
	}
	v, ok := g.index[id]
	return v, ok
}

// ensureIndex builds the ID map a mutation keeps up to date.
func (g *Graph) ensureIndex() {
	if g.index != nil {
		return
	}
	g.index = make(map[NodeID]int32, len(g.ids))
	for v, n := range g.ids {
		g.index[n] = int32(v)
	}
}

// AddNode inserts a node with the given label. Adding an existing node
// with the same label is a no-op; with a different label it is an error.
func (g *Graph) AddNode(id NodeID, label string) error {
	if id == "" {
		return fmt.Errorf("graph: empty node id")
	}
	g.ensureIndex()
	if v, ok := g.index[id]; ok {
		if have := g.labels[v]; have != label {
			return fmt.Errorf("graph: node %s already exists with label %q (got %q)", id, have, label)
		}
		return nil
	}
	g.index[id] = int32(len(g.ids))
	g.ids = append(g.ids, id)
	g.labels = append(g.labels, label)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return nil
}

// MustAddNode is AddNode that panics on error; for hand-built fixtures.
func (g *Graph) MustAddNode(id NodeID, label string) {
	if err := g.AddNode(id, label); err != nil {
		panic(err)
	}
}

// AddEdge inserts a directed edge and returns it. Both endpoints must
// already exist. Parallel edges receive increasing keys.
func (g *Graph) AddEdge(from, to NodeID) (Edge, error) {
	g.ensureIndex()
	u, ok := g.index[from]
	if !ok {
		return Edge{}, fmt.Errorf("graph: unknown node %s", from)
	}
	v, ok := g.index[to]
	if !ok {
		return Edge{}, fmt.Errorf("graph: unknown node %s", to)
	}
	e := Edge{From: from, To: to, Key: g.nextKey(u, v)}
	i := int32(len(g.edges))
	g.edges = append(g.edges, e)
	g.ends = append(g.ends, [2]int32{u, v})
	g.out[u] = append(g.out[u], i)
	g.in[v] = append(g.in[v], i)
	return e, nil
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(from, to NodeID) Edge {
	e, err := g.AddEdge(from, to)
	if err != nil {
		panic(err)
	}
	return e
}

// Nodes returns the node IDs in insertion order. The slice is a copy.
func (g *Graph) Nodes() []NodeID {
	return append([]NodeID(nil), g.ids...)
}

// Edges returns all edges in insertion order. The slice is a copy.
func (g *Graph) Edges() []Edge {
	return append([]Edge(nil), g.edges...)
}

// NumNodes returns |V(G)|.
func (g *Graph) NumNodes() int { return len(g.ids) }

// NumEdges returns |E(G)|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// HasNode reports whether id is a node of g.
func (g *Graph) HasNode(id NodeID) bool {
	_, ok := g.lookup(id)
	return ok
}

// NodeIndex returns the position of id in Nodes(), or -1 if id is not
// a node of g.
func (g *Graph) NodeIndex(id NodeID) int {
	if v, ok := g.lookup(id); ok {
		return int(v)
	}
	return -1
}

// Label returns the label on a node; empty if the node is unknown.
func (g *Graph) Label(id NodeID) string {
	if v, ok := g.lookup(id); ok {
		return g.labels[v]
	}
	return ""
}

// LabelAt returns the label of node Nodes()[v].
func (g *Graph) LabelAt(v int) string { return g.labels[v] }

// EdgeAt returns Edges()[i].
func (g *Graph) EdgeAt(i int) Edge { return g.edges[i] }

// Ends returns the node indices of the endpoints of Edges()[i].
func (g *Graph) Ends(i int) (from, to int) {
	return int(g.ends[i][0]), int(g.ends[i][1])
}

// Out returns the outgoing edges of a node (copy).
func (g *Graph) Out(id NodeID) []Edge {
	var out []Edge
	if v, ok := g.lookup(id); ok {
		for _, i := range g.out[v] {
			out = append(out, g.edges[i])
		}
	}
	return out
}

// OutDegree returns the number of outgoing edges of a node.
func (g *Graph) OutDegree(id NodeID) int {
	if v, ok := g.lookup(id); ok {
		return len(g.out[v])
	}
	return 0
}

// InDegree returns the number of incoming edges of a node.
func (g *Graph) InDegree(id NodeID) int {
	if v, ok := g.lookup(id); ok {
		return len(g.in[v])
	}
	return 0
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	for v, n := range g.ids {
		c.MustAddNode(n, g.labels[v])
	}
	for _, e := range g.edges {
		// Replaying insertions in order reassigns every key:
		// AddEdge numbers parallel edges sequentially per pair.
		c.MustAddEdge(e.From, e.To)
	}
	return c
}

// terminal returns the index of the unique node with an empty list in
// adj: the source for in lists, the sink for out lists.
func (g *Graph) terminal(adj [][]int32, what string) (int32, error) {
	found, n := int32(-1), 0
	for v := len(g.ids) - 1; v >= 0; v-- {
		if len(adj[v]) == 0 {
			found, n = int32(v), n+1
		}
	}
	if n != 1 {
		return -1, fmt.Errorf("graph: want exactly one %s, have %d", what, n)
	}
	return found, nil
}

// Source returns the unique node with in-degree zero, or an error if
// there is not exactly one.
func (g *Graph) Source() (NodeID, error) {
	v, err := g.terminal(g.in, "source")
	if err != nil {
		return "", err
	}
	return g.ids[v], nil
}

// IsAcyclic reports whether the graph has no directed cycle.
func (g *Graph) IsAcyclic() bool { return g.topo() != nil }

// TopoOrder returns the nodes in a topological order, or an error if
// the graph has a cycle.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	order := g.topo()
	if order == nil {
		return nil, fmt.Errorf("graph: cycle detected")
	}
	ids := make([]NodeID, len(order))
	for k, v := range order {
		ids[k] = g.ids[v]
	}
	return ids, nil
}

// topo returns the node indices in Kahn order, sources first in
// insertion order, or nil if the graph has a cycle.
func (g *Graph) topo() []int32 {
	indeg := make([]int32, len(g.ids))
	order := make([]int32, 0, len(g.ids))
	for v := range g.ids {
		indeg[v] = int32(len(g.in[v]))
		if indeg[v] == 0 {
			order = append(order, int32(v))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, e := range g.out[order[head]] {
			w := g.ends[e][1]
			if indeg[w]--; indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	if len(order) != len(g.ids) {
		return nil
	}
	return order
}

// reach marks the nodes reachable from start (including start) along
// adj, stepping to endpoint end (1 follows edges forward from out
// lists, 0 backward from in lists).
func (g *Graph) reach(start int32, adj [][]int32, end int) []bool {
	seen := make([]bool, len(g.ids))
	seen[start] = true
	stack := []int32{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range adj[v] {
			if w := g.ends[e][end]; !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// CheckFlowNetwork verifies Definition 3.1: a unique source s, a unique
// sink t, and every node on some s-t path. It returns (s, t, nil) on
// success.
func (g *Graph) CheckFlowNetwork() (s, t NodeID, err error) {
	if len(g.ids) == 0 {
		return "", "", fmt.Errorf("graph: empty graph is not a flow network")
	}
	si, err := g.terminal(g.in, "source")
	if err != nil {
		return "", "", err
	}
	ti, err := g.terminal(g.out, "sink")
	if err != nil {
		return "", "", err
	}
	s, t = g.ids[si], g.ids[ti]
	if si == ti && len(g.ids) > 1 {
		return "", "", fmt.Errorf("graph: source equals sink in multi-node graph")
	}
	fromS := g.reach(si, g.out, 1)
	toT := g.reach(ti, g.in, 0)
	for v, n := range g.ids {
		if !fromS[v] || !toT[v] {
			return "", "", fmt.Errorf("graph: node %s is not on any %s-%s path", n, s, t)
		}
	}
	return s, t, nil
}

// UniqueLabels reports whether all node labels are distinct, as the
// workflow specification model requires.
func (g *Graph) UniqueLabels() bool {
	seen := make(map[string]bool, len(g.labels))
	for _, l := range g.labels {
		if seen[l] {
			return false
		}
		seen[l] = true
	}
	return true
}

// NodeByLabel returns the node carrying the given label. It fails if
// zero or multiple nodes carry it.
func (g *Graph) NodeByLabel(label string) (NodeID, error) {
	var found []NodeID
	for v, l := range g.labels {
		if l == label {
			found = append(found, g.ids[v])
		}
	}
	if len(found) != 1 {
		return "", fmt.Errorf("graph: label %q carried by %d nodes", label, len(found))
	}
	return found[0], nil
}

// String renders a deterministic multi-line description, useful in
// tests and error messages.
func (g *Graph) String() string {
	nodes := make([]int, len(g.ids))
	for v := range nodes {
		nodes[v] = v
	}
	sort.Slice(nodes, func(i, j int) bool { return g.ids[nodes[i]] < g.ids[nodes[j]] })
	var b strings.Builder
	b.WriteString("nodes:")
	for _, v := range nodes {
		fmt.Fprintf(&b, " %s[%s]", g.ids[v], g.labels[v])
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Key < edges[j].Key
	})
	b.WriteString("\nedges:")
	for _, e := range edges {
		b.WriteString(" " + e.String())
	}
	return b.String()
}
