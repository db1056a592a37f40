package wfrun

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/spgraph"
	"repro/internal/sptree"
)

// Derive implements the deterministic tree execution function f″ of
// Algorithms 2 and 5: given the specification and a run supplied as a
// bare graph, it computes the annotated SP-tree of the run. The run
// graph must be an acyclic SP flow network admitting the label
// homomorphism into the specification (extended with loop back edges).
//
// For specifications whose graph has parallel edges between the same
// pair of labels, edgeRef[i] must name the specification edge that run
// edge g.Edges()[i] instantiates; otherwise edgeRef may be nil, and an
// edge whose entry is the zero Edge is mapped by its labels.
//
// Note that a bare graph does not always determine the fork structure
// uniquely (two fork copies taking complementary parallel branches
// yield the same graph as one copy taking both); f″ resolves the
// ambiguity canonically by assigning each parallel component its own
// fork copy, exactly as Algorithm 2 prescribes.
func Derive(sp *spec.Spec, g *graph.Graph, edgeRef []graph.Edge) (*Run, error) {
	s, t, err := g.CheckFlowNetwork()
	if err != nil {
		return nil, fmt.Errorf("wfrun: %w", err)
	}
	if !g.IsAcyclic() {
		return nil, fmt.Errorf("wfrun: run graph has a cycle")
	}
	d := &deriver{sp: sp, g: g}
	if err := d.classifyEdges(edgeRef); err != nil {
		return nil, err
	}
	canon, err := spgraph.Reduce(g, s, t)
	if err != nil {
		return nil, fmt.Errorf("wfrun: run graph is not series-parallel: %w", err)
	}
	d.info = make([]span, 2*g.NumEdges())
	d.scan(canon)
	root, err := d.derive(sp.Tree, canon)
	if err != nil {
		return nil, err
	}
	root.Finalize()
	if err := sptree.ValidateRunTree(root, sp.Tree); err != nil {
		return nil, fmt.Errorf("wfrun: derived tree is invalid: %w", err)
	}
	run := &Run{Spec: sp, Tree: root, Graph: g}
	// Graph insertion order: ImplicitEdges feeds the snapshot codec,
	// so two parses of the same document must list the implicit edges
	// identically for frames to be byte-stable.
	for i, imp := range d.implicit {
		if imp {
			run.ImplicitEdges = append(run.ImplicitEdges, g.EdgeAt(i))
		}
	}
	return run, nil
}

// deriver holds one derivation's per-edge and per-node facts in
// slices: run edges by their index in the graph, canonical tree nodes
// by ID (spgraph.Reduce numbers a leaf by its edge's index).
type deriver struct {
	sp       *spec.Spec
	g        *graph.Graph
	specOf   []graph.Edge // run edge -> specification edge
	implicit []bool       // run edges that are loop back edges
	info     []span
}

// span summarizes the specification leaf indices covered by the real
// (non-implicit) edges below a canonical run-tree node.
type span struct {
	lo, hi  int // half-open; valid only if hasReal
	hasReal bool
}

// classify is the rule every ingest path applies to a run edge whose
// endpoints carry the labels from and to, given the specification's
// candidates for that pair (spec.LabelPair): the edge instantiates the
// unique specification edge carrying its labels and, when no
// specification edge carries them, is the implicit back edge
// (t(L), s(L)) between two iterations of a loop L.
func classify(cands []graph.Edge, loopBack bool, from, to string) (ref graph.Edge, implicit bool, err error) {
	switch {
	case len(cands) == 1:
		return cands[0], false, nil
	case len(cands) > 1:
		return ref, false, fmt.Errorf("labels (%s,%s) are ambiguous (parallel specification edges); supply a specification reference", from, to)
	case loopBack:
		return ref, true, nil
	}
	return ref, false, fmt.Errorf("labels (%s,%s) have no specification image", from, to)
}

// noImage is the label homomorphism's rejection of run edge e.
func noImage(e graph.Edge, from, to string) error {
	return fmt.Errorf("wfrun: run edge %s maps to (%s,%s), absent from the specification", e, from, to)
}

// classifyEdges checks the label homomorphism of Section III-B, where
// the specification edge set is extended with the implicit back edge
// of every loop, and resolves every run edge to a specification edge
// or marks it implicit. A homomorphism violation on any edge outranks
// a resolution error on an earlier one.
func (d *deriver) classifyEdges(edgeRef []graph.Edge) error {
	m := d.g.NumEdges()
	d.specOf = make([]graph.Edge, m)
	d.implicit = make([]bool, m)
	var first error
	for i := 0; i < m; i++ {
		e := d.g.EdgeAt(i)
		u, v := d.g.Ends(i)
		from, to := d.g.LabelAt(u), d.g.LabelAt(v)
		cands, loopBack := d.sp.LabelPair(from, to)
		if len(cands) == 0 && !loopBack {
			return noImage(e, from, to)
		}
		if first != nil {
			continue
		}
		if i < len(edgeRef) && edgeRef[i].From != "" {
			if _, valid := d.sp.LeafIndex(edgeRef[i]); !valid {
				first = fmt.Errorf("wfrun: edge reference %s -> %s names an unknown specification edge", e, edgeRef[i])
			}
			d.specOf[i] = edgeRef[i]
			continue
		}
		ref, implicit, err := classify(cands, loopBack, from, to)
		if err != nil {
			first = fmt.Errorf("wfrun: run edge %s: %w", e, err)
		}
		d.specOf[i], d.implicit[i] = ref, implicit
	}
	return first
}

// scan computes span info bottom-up over the canonical run tree.
func (d *deriver) scan(n *sptree.Node) span {
	var s span
	if n.Type == sptree.Q {
		if d.implicit[n.ID] {
			return s
		}
		i, ok := d.sp.LeafIndex(d.specOf[n.ID])
		if !ok {
			// classifyEdges guarantees this cannot happen.
			panic(fmt.Sprintf("wfrun: unclassified run edge %s", n.Edge))
		}
		s = span{lo: i, hi: i + 1, hasReal: true}
		d.info[n.ID] = s
		return s
	}
	for _, c := range n.Children {
		cs := d.scan(c)
		if !cs.hasReal {
			continue
		}
		if !s.hasReal {
			s = cs
			continue
		}
		if cs.lo < s.lo {
			s.lo = cs.lo
		}
		if cs.hi > s.hi {
			s.hi = cs.hi
		}
	}
	d.info[n.ID] = s
	return s
}

// bundle packs a nonempty group of canonical children into a single
// canonical node of the given type, reusing the sole element when the
// group is a singleton.
func (d *deriver) bundle(t sptree.Type, group []*sptree.Node) *sptree.Node {
	if len(group) == 1 {
		return group[0]
	}
	n := sptree.NewInternal(t, group...)
	s := span{}
	for _, c := range group {
		cs := d.info[c.ID]
		if !cs.hasReal {
			continue
		}
		if !s.hasReal {
			s = cs
			continue
		}
		if cs.lo < s.lo {
			s.lo = cs.lo
		}
		if cs.hi > s.hi {
			s.hi = cs.hi
		}
	}
	n.ID = len(d.info)
	d.info = append(d.info, s)
	return n
}

// childFor returns the index of the unique specification child of tg
// whose leaf interval contains sp, or an error.
func (d *deriver) childFor(tg *sptree.Node, s span, what string) (int, error) {
	for i, c := range tg.Children {
		lo, hi := d.sp.Interval(c)
		if lo <= s.lo && s.hi <= hi {
			return i, nil
		}
	}
	return 0, fmt.Errorf("wfrun: %s spans specification leaves [%d,%d) not contained in any child of %s node", what, s.lo, s.hi, tg.Type)
}

func (d *deriver) derive(tg, tr *sptree.Node) (*sptree.Node, error) {
	switch tg.Type {
	case sptree.Q:
		if tr.Type != sptree.Q {
			return nil, fmt.Errorf("wfrun: expected a single edge for specification edge %s, found %s subtree", tg.Edge, tr.Type)
		}
		if d.specOf[tr.ID] != tg.Edge {
			return nil, fmt.Errorf("wfrun: run edge %s does not instantiate specification edge %s", tr.Edge, tg.Edge)
		}
		n := sptree.NewQ(tr.Edge, tg.Src, tg.Dst)
		n.Spec = tg
		return n, nil

	case sptree.S:
		if tr.Type != sptree.S {
			return nil, fmt.Errorf("wfrun: series region %s..%s does not decompose as a series composition", tg.Src, tg.Dst)
		}
		groups := make([][]*sptree.Node, len(tg.Children))
		current := -1
		for _, c := range tr.Children {
			cs := d.info[c.ID]
			if !cs.hasReal {
				// An implicit loop edge between iterations; both its
				// neighbors belong to the same (loop) group.
				if current < 0 {
					return nil, fmt.Errorf("wfrun: implicit loop edge at the start of a series region")
				}
				groups[current] = append(groups[current], c)
				continue
			}
			idx, err := d.childFor(tg, cs, "series component")
			if err != nil {
				return nil, err
			}
			if idx < current {
				return nil, fmt.Errorf("wfrun: series components appear out of specification order")
			}
			current = idx
			groups[idx] = append(groups[idx], c)
		}
		n := &sptree.Node{Type: sptree.S, Spec: tg, Src: tg.Src, Dst: tg.Dst, Children: make([]*sptree.Node, 0, len(groups))}
		for i, g := range groups {
			if len(g) == 0 {
				return nil, fmt.Errorf("wfrun: series child %d of %s..%s was not executed", i, tg.Src, tg.Dst)
			}
			child, err := d.derive(tg.Children[i], d.bundle(sptree.S, g))
			if err != nil {
				return nil, err
			}
			n.Adopt(child)
		}
		return n, nil

	case sptree.P:
		if tr.Type == sptree.P {
			groups := make([][]*sptree.Node, len(tg.Children))
			for _, c := range tr.Children {
				cs := d.info[c.ID]
				if !cs.hasReal {
					return nil, fmt.Errorf("wfrun: implicit loop edge cannot form a parallel branch")
				}
				idx, err := d.childFor(tg, cs, "parallel branch")
				if err != nil {
					return nil, err
				}
				groups[idx] = append(groups[idx], c)
			}
			n := &sptree.Node{Type: sptree.P, Spec: tg, Src: tg.Src, Dst: tg.Dst, Children: make([]*sptree.Node, 0, len(groups))}
			for i, g := range groups {
				if len(g) == 0 {
					continue
				}
				child, err := d.derive(tg.Children[i], d.bundle(sptree.P, g))
				if err != nil {
					return nil, err
				}
				n.Adopt(child)
			}
			if len(n.Children) == 0 {
				return nil, fmt.Errorf("wfrun: parallel node %s..%s has no executed branch", tg.Src, tg.Dst)
			}
			return n, nil
		}
		// A single branch was taken (tr is S or Q).
		cs := d.info[tr.ID]
		if !cs.hasReal {
			return nil, fmt.Errorf("wfrun: implicit loop edge cannot form a parallel branch")
		}
		idx, err := d.childFor(tg, cs, "parallel branch")
		if err != nil {
			return nil, err
		}
		child, err := d.derive(tg.Children[idx], tr)
		if err != nil {
			return nil, err
		}
		n := &sptree.Node{Type: sptree.P, Spec: tg, Src: tg.Src, Dst: tg.Dst}
		n.Adopt(child)
		return n, nil

	case sptree.F:
		n := &sptree.Node{Type: sptree.F, Spec: tg, Src: tg.Src, Dst: tg.Dst}
		if tr.Type == sptree.P {
			for _, c := range tr.Children {
				child, err := d.derive(tg.Children[0], c)
				if err != nil {
					return nil, err
				}
				n.Adopt(child)
			}
			return n, nil
		}
		child, err := d.derive(tg.Children[0], tr)
		if err != nil {
			return nil, err
		}
		n.Adopt(child)
		return n, nil

	case sptree.L:
		n := &sptree.Node{Type: sptree.L, Spec: tg, Src: tg.Src, Dst: tg.Dst}
		if tr.Type == sptree.S {
			// Algorithm 5: children equal to the implicit edge
			// (t(TG), s(TG)) separate consecutive iterations.
			var groups [][]*sptree.Node
			cur := []*sptree.Node{}
			for _, c := range tr.Children {
				if c.Type == sptree.Q && d.implicit[c.ID] && c.Src == tg.Dst && c.Dst == tg.Src {
					groups = append(groups, cur)
					cur = []*sptree.Node{}
					continue
				}
				cur = append(cur, c)
			}
			groups = append(groups, cur)
			if len(groups) == 1 {
				// No separators: a single iteration whose body is
				// this whole series composition.
				child, err := d.derive(tg.Children[0], tr)
				if err != nil {
					return nil, err
				}
				n.Adopt(child)
				return n, nil
			}
			for i, g := range groups {
				if len(g) == 0 {
					return nil, fmt.Errorf("wfrun: loop %s..%s has an empty iteration %d", tg.Src, tg.Dst, i)
				}
				child, err := d.derive(tg.Children[0], d.bundle(sptree.S, g))
				if err != nil {
					return nil, err
				}
				n.Adopt(child)
			}
			return n, nil
		}
		// A single iteration whose body is parallel or a single edge.
		child, err := d.derive(tg.Children[0], tr)
		if err != nil {
			return nil, err
		}
		n.Adopt(child)
		return n, nil
	}
	return nil, fmt.Errorf("wfrun: unknown specification node type %s", tg.Type)
}
