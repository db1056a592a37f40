// Package spec implements SP-workflow specifications (G, F, L) of
// Sections III-D and VI of Bao et al.: a series-parallel specification
// graph G with unique node labels, overlaid with a laminar family of
// fork subgraphs F and loop subgraphs L, together with the annotated
// SP-tree produced by Algorithm 1.
package spec

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/spgraph"
	"repro/internal/sptree"
)

// EdgeSet identifies a fork or loop subgraph by its set of
// specification edges (the Leaf set of the subtree representing it).
type EdgeSet []graph.Edge

// Spec is a validated SP-workflow specification. It is immutable after
// New, apart from two caches that are safe for concurrent use: the
// achievable-length memo and the shape table.
type Spec struct {
	// G is the series-parallel specification graph; node IDs equal
	// the (unique) labels.
	G *graph.Graph
	// Tree is the annotated SP-tree for (G, F, L) built by
	// Algorithm 1 (extended with L nodes per Section VI).
	Tree *sptree.Node
	// Forks and Loops are the declared subgraph families.
	Forks []EdgeSet
	Loops []EdgeSet

	leafIndex  map[graph.Edge]int
	leafOrder  []graph.Edge
	nodes      []*sptree.Node    // Tree in preorder: nodes[n.ID] == n
	labels     map[string]string // every node label, keyed by itself
	pairs      map[[2]string]labelPair
	interval   map[*sptree.Node][2]int
	qByEdge    map[graph.Edge]*sptree.Node
	lengthMu   sync.Mutex
	lengths    map[*sptree.Node][]int // guarded by lengthMu
	shapes     *sptree.Shapes
	shapesOnce sync.Once
}

// labelPair is what a run edge between two labels can instantiate:
// the specification edges between nodes carrying them, and whether the
// pair is the implicit back edge (t(L), s(L)) of a loop L.
type labelPair struct {
	edges    []graph.Edge
	loopBack bool
}

// New validates the specification and builds its annotated SP-tree.
// The graph must be a series-parallel flow network with unique labels;
// the edge sets of forks ∪ loops must form a laminar family without
// duplicates, and each must identify a complete subgraph (an entire
// decomposition subtree or a consecutive run of two or more children
// of an S node).
func New(g *graph.Graph, forks, loops []EdgeSet) (*Spec, error) {
	if !g.UniqueLabels() {
		return nil, fmt.Errorf("spec: node labels are not unique")
	}
	tree, err := spgraph.Decompose(g)
	if err != nil {
		return nil, err
	}
	s := &Spec{
		G:         g,
		Forks:     append([]EdgeSet(nil), forks...),
		Loops:     append([]EdgeSet(nil), loops...),
		leafIndex: make(map[graph.Edge]int),
		interval:  make(map[*sptree.Node][2]int),
		qByEdge:   make(map[graph.Edge]*sptree.Node),
		lengths:   make(map[*sptree.Node][]int),
	}
	for i, leaf := range tree.Leaves() {
		s.leafIndex[leaf.Edge] = i
		s.leafOrder = append(s.leafOrder, leaf.Edge)
	}
	if err := s.checkLaminar(); err != nil {
		return nil, err
	}
	s.Tree = tree
	s.indexIntervals(tree)

	// Algorithm 1: insert F and L nodes, smallest subgraphs first so
	// inner annotations are in place before outer ones.
	type annot struct {
		set EdgeSet
		typ sptree.Type
	}
	var all []annot
	for _, h := range s.Forks {
		all = append(all, annot{h, sptree.F})
	}
	for _, h := range s.Loops {
		all = append(all, annot{h, sptree.L})
	}
	sort.SliceStable(all, func(i, j int) bool { return len(all[i].set) < len(all[j].set) })
	for _, a := range all {
		if err := s.insertAnnotation(a.set, a.typ); err != nil {
			return nil, err
		}
	}
	s.Tree.Finalize()
	if err := sptree.ValidateSpecTree(s.Tree); err != nil {
		return nil, err
	}
	// Re-index over the final tree (leaf order is preserved by
	// annotation inserts; intervals gain the new internal nodes).
	s.interval = make(map[*sptree.Node][2]int)
	s.indexIntervals(s.Tree)
	s.labels = make(map[string]string, g.NumNodes())
	for v := range g.NumNodes() {
		s.labels[g.LabelAt(v)] = g.LabelAt(v)
	}
	s.pairs = make(map[[2]string]labelPair)
	for _, e := range g.Edges() {
		k := [2]string{g.Label(e.From), g.Label(e.To)}
		s.pairs[k] = labelPair{edges: append(s.pairs[k].edges, e)}
	}
	s.Tree.Walk(func(n *sptree.Node) bool {
		s.nodes = append(s.nodes, n)
		if k := [2]string{n.Dst, n.Src}; n.Type == sptree.L {
			s.pairs[k] = labelPair{s.pairs[k].edges, true}
		}
		return true
	})
	return s, nil
}

// TreeNodes returns the nodes of Tree in preorder, so that
// TreeNodes()[n.ID] == n. The slice is shared: callers must not
// modify it.
func (s *Spec) TreeNodes() []*sptree.Node { return s.nodes }

// InternLabel returns the string b spells: the specification's own
// copy when a node carries that label, so runs decoded against the
// specification share its label strings, and a fresh copy otherwise.
func (s *Spec) InternLabel(b []byte) string {
	if l, ok := s.labels[string(b)]; ok {
		return l
	}
	return string(b)
}

// LabelPair returns the specification edges between the nodes labeled
// from and to, in graph order, and whether (from, to) is the implicit
// back edge (t(L), s(L)) of a loop L. A run edge whose labels get
// neither has no image under the label homomorphism of Section III-B
// extended with the loop back edges.
func (s *Spec) LabelPair(from, to string) (edges []graph.Edge, loopBack bool) {
	p := s.pairs[[2]string{from, to}]
	return p.edges, p.loopBack
}

// Shapes returns the hash-consing table shared by the runs of the
// specification: it gives their tree nodes shape IDs comparable across
// all of them. It is built on first use, so a load that never diffs
// does not pay for it.
func (s *Spec) Shapes() *sptree.Shapes {
	s.shapesOnce.Do(func() { s.shapes = sptree.NewShapes(len(s.nodes)) })
	return s.shapes
}

// checkLaminar verifies Definition 3.6 on forks ∪ loops: any two sets
// are nested or disjoint, and no two sets are equal.
func (s *Spec) checkLaminar() error {
	sets := make([]map[graph.Edge]bool, 0, len(s.Forks)+len(s.Loops))
	names := make([]string, 0, cap(sets))
	add := func(kind string, i int, es EdgeSet) error {
		m := make(map[graph.Edge]bool, len(es))
		for _, e := range es {
			if _, ok := s.leafIndex[e]; !ok {
				return fmt.Errorf("spec: %s %d references unknown edge %s", kind, i, e)
			}
			if m[e] {
				return fmt.Errorf("spec: %s %d lists edge %s twice", kind, i, e)
			}
			m[e] = true
		}
		if len(m) == 0 {
			return fmt.Errorf("spec: %s %d is empty", kind, i)
		}
		sets = append(sets, m)
		names = append(names, fmt.Sprintf("%s %d", kind, i))
		return nil
	}
	for i, h := range s.Forks {
		if err := add("fork", i, h); err != nil {
			return err
		}
	}
	for i, h := range s.Loops {
		if err := add("loop", i, h); err != nil {
			return err
		}
	}
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			inter, onlyI, onlyJ := 0, 0, 0
			for e := range sets[i] {
				if sets[j][e] {
					inter++
				} else {
					onlyI++
				}
			}
			onlyJ = len(sets[j]) - inter
			switch {
			case inter == 0:
			case onlyI == 0 && onlyJ == 0:
				return fmt.Errorf("spec: %s and %s have identical edge sets", names[i], names[j])
			case onlyI == 0 || onlyJ == 0:
			default:
				return fmt.Errorf("spec: %s and %s properly intersect; family is not laminar", names[i], names[j])
			}
		}
	}
	return nil
}

// indexIntervals records, for every tree node, the half-open interval
// of leaf indices its subtree spans, and the Q node for every edge.
func (s *Spec) indexIntervals(n *sptree.Node) (lo, hi int) {
	if n.Type == sptree.Q {
		i := s.leafIndex[n.Edge]
		s.interval[n] = [2]int{i, i + 1}
		s.qByEdge[n.Edge] = n
		return i, i + 1
	}
	lo, hi = -1, -1
	for _, c := range n.Children {
		clo, chi := s.indexIntervals(c)
		if lo == -1 || clo < lo {
			lo = clo
		}
		if chi > hi {
			hi = chi
		}
	}
	s.interval[n] = [2]int{lo, hi}
	return lo, hi
}

// insertAnnotation implements one step of Algorithm 1: wrap the
// subtree(s) representing the subgraph with edge set h in a new node of
// the given type (F or L).
func (s *Spec) insertAnnotation(h EdgeSet, typ sptree.Type) error {
	lo, hi, err := s.contiguousSpan(h)
	if err != nil {
		return err
	}
	v := s.deepestCovering(s.Tree, lo, hi)
	iv := s.interval[v]
	if iv[0] == lo && iv[1] == hi {
		// Case 1: the subgraph is exactly Leaf(T[v]); insert the
		// annotation node between p(v) and v.
		wrap := &sptree.Node{Type: typ, Src: v.Src, Dst: v.Dst}
		if p := v.Parent; p == nil {
			wrap.Adopt(v)
			s.Tree = wrap
		} else {
			i := p.ChildIndex(v)
			p.RemoveChild(i)
			wrap.Adopt(v)
			p.InsertChild(i, wrap)
		}
		s.interval[wrap] = [2]int{lo, hi}
		return nil
	}
	if v.Type != sptree.S {
		return fmt.Errorf("spec: subgraph %v is not a complete subgraph (deepest covering node is %s)", h, v.Type)
	}
	// Case 2: the subgraph is a consecutive subsequence of two or
	// more children of an S node; group them under a fresh S node and
	// wrap that.
	first, last := -1, -1
	for i, c := range v.Children {
		ci := s.interval[c]
		if ci[0] == lo {
			first = i
		}
		if ci[1] == hi {
			last = i
		}
	}
	if first < 0 || last < 0 || last < first {
		return fmt.Errorf("spec: subgraph %v does not align with children of its covering S node", h)
	}
	span := 0
	for i := first; i <= last; i++ {
		ci := s.interval[v.Children[i]]
		span += ci[1] - ci[0]
	}
	if span != hi-lo {
		return fmt.Errorf("spec: subgraph %v does not align with children of its covering S node", h)
	}
	grouped := make([]*sptree.Node, 0, last-first+1)
	for i := first; i <= last; i++ {
		grouped = append(grouped, v.Children[first])
		v.RemoveChild(first)
	}
	inner := sptree.NewInternal(sptree.S, grouped...)
	wrap := sptree.NewInternal(typ, inner)
	v.InsertChild(first, wrap)
	s.interval[inner] = [2]int{lo, hi}
	s.interval[wrap] = [2]int{lo, hi}
	return nil
}

// contiguousSpan maps an edge set to its leaf-index interval and
// verifies contiguity and exact coverage.
func (s *Spec) contiguousSpan(h EdgeSet) (lo, hi int, err error) {
	if len(h) == 0 {
		return 0, 0, fmt.Errorf("spec: empty subgraph")
	}
	lo, hi = -1, -1
	in := make(map[int]bool, len(h))
	for _, e := range h {
		i, ok := s.leafIndex[e]
		if !ok {
			return 0, 0, fmt.Errorf("spec: unknown edge %s in subgraph", e)
		}
		in[i] = true
		if lo == -1 || i < lo {
			lo = i
		}
		if i >= hi {
			hi = i + 1
		}
	}
	if hi-lo != len(in) {
		return 0, 0, fmt.Errorf("spec: subgraph %v is not a contiguous leaf span; not a complete subgraph", h)
	}
	return lo, hi, nil
}

// deepestCovering finds the deepest node whose leaf interval contains
// [lo, hi).
func (s *Spec) deepestCovering(n *sptree.Node, lo, hi int) *sptree.Node {
	for {
		descended := false
		for _, c := range n.Children {
			ci := s.interval[c]
			if ci[0] <= lo && hi <= ci[1] {
				n = c
				descended = true
				break
			}
		}
		if !descended {
			return n
		}
	}
}

// QNode returns the specification-tree leaf representing edge e.
func (s *Spec) QNode(e graph.Edge) *sptree.Node { return s.qByEdge[e] }

// LeafIndex returns the position of edge e in the tree's leaf order.
func (s *Spec) LeafIndex(e graph.Edge) (int, bool) {
	i, ok := s.leafIndex[e]
	return i, ok
}

// Interval returns the half-open leaf-index interval spanned by a
// specification-tree node.
func (s *Spec) Interval(n *sptree.Node) (lo, hi int) {
	iv := s.interval[n]
	return iv[0], iv[1]
}

// EdgeByLabels resolves a specification edge by the labels of its
// endpoints and parallel key.
func (s *Spec) EdgeByLabels(src, dst string, key int) (graph.Edge, bool) {
	e := graph.Edge{From: graph.NodeID(src), To: graph.NodeID(dst), Key: key}
	_, ok := s.leafIndex[e]
	return e, ok
}

// AchievableLengths returns, in increasing order, the lengths of
// elementary paths obtainable as branch-free executions of the subtree
// rooted at specification node n: a Q contributes length 1, an S sums
// one choice per child, a P picks exactly one branch, and an F or L
// keeps a single copy or iteration (more would make the node true and
// the subtree no longer branch-free). Used for W_TG and insertion
// skeleton pricing. It is safe for concurrent use.
func (s *Spec) AchievableLengths(n *sptree.Node) []int {
	s.lengthMu.Lock()
	defer s.lengthMu.Unlock()
	return s.achievableLengths(n)
}

// achievableLengths computes AchievableLengths under lengthMu.
func (s *Spec) achievableLengths(n *sptree.Node) []int {
	if got, ok := s.lengths[n]; ok {
		return got
	}
	maxLen := s.G.NumEdges()
	set := make([]bool, maxLen+1)
	switch n.Type {
	case sptree.Q:
		set[1] = true
	case sptree.P:
		for _, c := range n.Children {
			for _, l := range s.achievableLengths(c) {
				set[l] = true
			}
		}
	case sptree.F, sptree.L:
		for _, l := range s.achievableLengths(n.Children[0]) {
			set[l] = true
		}
	case sptree.S:
		cur := []bool{true} // lengths achievable so far; cur[0]=true
		for _, c := range n.Children {
			next := make([]bool, maxLen+1)
			for base, ok := range cur {
				if !ok {
					continue
				}
				for _, l := range s.achievableLengths(c) {
					if base+l <= maxLen {
						next[base+l] = true
					}
				}
			}
			cur = next
		}
		set = cur
	}
	var out []int
	for l, ok := range set {
		if ok && l > 0 {
			out = append(out, l)
		}
	}
	s.lengths[n] = out
	return out
}

// Stats summarizes a specification as in Table I of the paper.
type Stats struct {
	V, E          int // |V|, |E| of the specification graph
	Forks, ForkSz int // |F| and ||F|| (total edges across forks)
	Loops, LoopSz int // |L| and ||L||
}

// Stats returns the Table I characteristics of the specification.
func (s *Spec) Stats() Stats {
	st := Stats{V: s.G.NumNodes(), E: s.G.NumEdges(), Forks: len(s.Forks), Loops: len(s.Loops)}
	for _, h := range s.Forks {
		st.ForkSz += len(h)
	}
	for _, h := range s.Loops {
		st.LoopSz += len(h)
	}
	return st
}
