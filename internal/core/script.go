package core

import (
	"fmt"

	"repro/internal/edit"
	"repro/internal/graph"
	"repro/internal/sptree"
)

// Script materializes the minimum-cost edit script realizing the
// computed mapping, following the constructive proof of Lemma 5.1:
// unmatched children of mapped F/P/L pairs are inserted and deleted in
// a validity-preserving order, unstably matched P pairs use a
// temporary scratch branch, and non-elementary subtrees are edited via
// the reduction sequences reconstructed from Algorithm 3.
//
// It returns the script together with the final working tree, which is
// the clone of T1 transformed by the script (equivalent to T2 up to
// node-instance renaming). Every operation is validity-checked as it
// is applied; the script's total cost equals the edit distance.
func (r *Result) Script() (*edit.Script, *sptree.Node, error) {
	if r.gen != r.eng.gen {
		return nil, nil, fmt.Errorf("core: Result used after its Engine ran another Diff; extract the script before reusing the Engine")
	}
	b := &scriptBuilder{
		res:    r,
		eng:    r.eng,
		script: &edit.Script{},
		m1:     make(map[*sptree.Node]*sptree.Node),
	}
	b.work = cloneWithMap(r.r1.Tree, b.m1)
	if err := b.emit(r.r1.Tree, r.r2.Tree); err != nil {
		return nil, nil, err
	}
	b.work.Finalize()
	return b.script, b.work, nil
}

type scriptBuilder struct {
	res    *Result
	eng    *Engine
	script *edit.Script
	work   *sptree.Node
	m1     map[*sptree.Node]*sptree.Node // original T1 node -> working node
	tmpSeq int
}

// cloneWithMap deep-copies a tree, recording original->copy pairs.
func cloneWithMap(n *sptree.Node, m map[*sptree.Node]*sptree.Node) *sptree.Node {
	c := &sptree.Node{Type: n.Type, Edge: n.Edge, Spec: n.Spec, Src: n.Src, Dst: n.Dst, ID: n.ID}
	m[n] = c
	for _, child := range n.Children {
		c.Adopt(cloneWithMap(child, m))
	}
	return c
}

// opFor builds the Op record for editing the subtree currently rooted
// at w (costed in its present, reduced state).
func (b *scriptBuilder) opFor(kind edit.Kind, w *sptree.Node, temporary bool) edit.Op {
	length := w.CountLeaves()
	nodes, labels := edit.PathOf(w)
	loopOp := w.Parent != nil && w.Parent.Type == sptree.L
	return edit.Op{
		Kind:       kind,
		Cost:       b.eng.model.PathCost(length, w.Src, w.Dst),
		Length:     length,
		SrcLabel:   w.Src,
		DstLabel:   w.Dst,
		PathNodes:  nodes,
		PathLabels: labels,
		LoopOp:     loopOp,
		Temporary:  temporary,
	}
}

// deleteWhole removes the entire subtree of original T1 node orig from
// the working tree via its optimal elementary deletion sequence.
func (b *scriptBuilder) deleteWhole(orig *sptree.Node) error {
	var plan []*sptree.Node
	b.eng.del.planDelete(orig, b.res.p1.Shape, &plan)
	for _, n := range plan {
		w, ok := b.m1[n]
		if !ok {
			return fmt.Errorf("core: deletion plan references a node outside the working tree")
		}
		op := b.opFor(edit.Delete, w, false)
		if err := edit.DeleteElementary(w); err != nil {
			return fmt.Errorf("core: invalid deletion in generated script: %w", err)
		}
		b.script.Ops = append(b.script.Ops, op)
	}
	return nil
}

// step records one dismantling move of a target fragment so it can be
// replayed in reverse as an insertion sequence.
type step struct {
	node   *sptree.Node
	parent *sptree.Node // nil for the fragment root
	pos    int
}

// insertWhole inserts a copy of the T2 subtree rooted at orig2 as a
// child of the working node parent at position pos (-1 appends), as
// the reverse of the subtree's optimal deletion sequence.
func (b *scriptBuilder) insertWhole(parent *sptree.Node, pos int, orig2 *sptree.Node) error {
	m2 := make(map[*sptree.Node]*sptree.Node)
	frag := cloneWithMap(orig2, m2)
	var plan []*sptree.Node
	b.eng.del.planDelete(orig2, b.res.p2.Shape, &plan)
	steps := make([]step, 0, len(plan))
	for _, n := range plan {
		w := m2[n]
		if w.Parent == nil {
			if w != frag {
				return fmt.Errorf("core: insertion plan detached an unexpected fragment root")
			}
			steps = append(steps, step{node: w})
			continue
		}
		p := w.Parent
		i := p.ChildIndex(w)
		p.RemoveChild(i)
		steps = append(steps, step{node: w, parent: p, pos: i})
	}
	for i := len(steps) - 1; i >= 0; i-- {
		st := steps[i]
		attachParent, attachPos := st.parent, st.pos
		if attachParent == nil {
			attachParent, attachPos = parent, pos
			if attachPos < 0 {
				attachPos = len(attachParent.Children)
			}
		}
		if err := edit.InsertElementary(attachParent, attachPos, st.node); err != nil {
			return fmt.Errorf("core: invalid insertion in generated script: %w", err)
		}
		b.script.Ops = append(b.script.Ops, b.opFor(edit.Insert, st.node, false))
	}
	return nil
}

// emit walks a mapped pair and appends the edit operations
// transforming the working subtree of v1 into the shape of T2[v2]. An
// equal-shape pair needs none.
func (b *scriptBuilder) emit(v1, v2 *sptree.Node) error {
	if b.eng.same(b.res.p1, b.res.p2, v1, v2) {
		return nil
	}
	dec := b.res.lookup(v1, v2)
	if dec == nil {
		return fmt.Errorf("core: no decision recorded for node pair")
	}
	switch v1.Type {
	case sptree.Q:
		return nil

	case sptree.S:
		for _, p := range b.eng.pairsOf(dec) {
			if err := b.emit(v1.Children[p[0]], v2.Children[p[1]]); err != nil {
				return err
			}
		}
		return nil

	case sptree.P:
		if dec.unstable {
			return b.emitUnstable(v1, v2)
		}
		return b.emitUnordered(v1, v2, dec)

	case sptree.F:
		return b.emitUnordered(v1, v2, dec)

	case sptree.L:
		return b.emitOrdered(v1, v2, dec)
	}
	return fmt.Errorf("core: unknown node type %s", v1.Type)
}

// emitUnordered transforms the children of a mapped P or F pair:
// unmatched new children are inserted as soon as they are insertable,
// unmatched old children are deleted whenever the parent stays true;
// matched pairs recurse afterwards.
func (b *scriptBuilder) emitUnordered(v1, v2 *sptree.Node, dec *decision) error {
	w1 := b.m1[v1]
	pairs := b.eng.pairsOf(dec)
	matched1 := make([]bool, len(v1.Children))
	matched2 := make([]bool, len(v2.Children))
	for _, p := range pairs {
		matched1[p[0]] = true
		matched2[p[1]] = true
	}
	var oldDel, newIns []*sptree.Node
	for i, c := range v1.Children {
		if !matched1[i] {
			oldDel = append(oldDel, c)
		}
	}
	for j, c := range v2.Children {
		if !matched2[j] {
			newIns = append(newIns, c)
		}
	}
	insertable := func(c2 *sptree.Node) bool {
		if v1.Type != sptree.P {
			return true
		}
		for _, c := range w1.Children {
			if c.Spec == c2.Spec {
				return false
			}
		}
		return true
	}
	for len(oldDel)+len(newIns) > 0 {
		progressed := false
		for i, c2 := range newIns {
			if insertable(c2) {
				if err := b.insertWhole(w1, -1, c2); err != nil {
					return err
				}
				newIns = append(newIns[:i], newIns[i+1:]...)
				progressed = true
				break
			}
		}
		if progressed {
			continue
		}
		if len(oldDel) > 0 && w1.True() {
			if err := b.deleteWhole(oldDel[0]); err != nil {
				return err
			}
			oldDel = oldDel[1:]
			progressed = true
		}
		if !progressed {
			return fmt.Errorf("core: stuck transforming %s node children (should be an unstable match)", v1.Type)
		}
	}
	for _, p := range pairs {
		if err := b.emit(v1.Children[p[0]], v2.Children[p[1]]); err != nil {
			return err
		}
	}
	return nil
}

// emitOrdered transforms the ordered iterations of a mapped L pair:
// new iterations are inserted at the positions dictated by the
// non-crossing matching, old unmatched iterations are contracted, then
// matched iterations recurse.
func (b *scriptBuilder) emitOrdered(v1, v2 *sptree.Node, dec *decision) error {
	w1 := b.m1[v1]
	pairs := b.eng.pairsOf(dec)
	// anchor[j] = the working node matched to T2 child index j.
	anchor := make([]*sptree.Node, len(v2.Children))
	matched1 := make([]bool, len(v1.Children))
	matched2 := make([]bool, len(v2.Children))
	for _, p := range pairs {
		matched1[p[0]] = true
		matched2[p[1]] = true
		anchor[p[1]] = b.m1[v1.Children[p[0]]]
	}
	for j, c2 := range v2.Children {
		if matched2[j] {
			continue
		}
		// Insert before the working child matched to the next
		// matched T2 index; append if there is none.
		pos := -1
		for j2 := j + 1; j2 < len(v2.Children); j2++ {
			if matched2[j2] {
				pos = w1.ChildIndex(anchor[j2])
				break
			}
		}
		if err := b.insertWhole(w1, pos, c2); err != nil {
			return err
		}
	}
	for i, c1 := range v1.Children {
		if matched1[i] {
			continue
		}
		if err := b.deleteWhole(c1); err != nil {
			return err
		}
	}
	for _, p := range pairs {
		if err := b.emit(v1.Children[p[0]], v2.Children[p[1]]); err != nil {
			return err
		}
	}
	return nil
}

// emitUnstable realizes the four-operation workaround for an unstably
// matched P pair (Definition 5.2 / Eq. 2): insert a minimum-cost
// scratch subtree on a different specification branch, delete the old
// child, insert the new child, delete the scratch subtree.
func (b *scriptBuilder) emitUnstable(v1, v2 *sptree.Node) error {
	w1 := b.m1[v1]
	c1, c2 := v1.Children[0], v2.Children[0]
	spc, length := b.eng.minSkeleton(v1.Spec, c1.Spec)
	if spc == nil {
		return fmt.Errorf("core: no alternative specification branch for unstable match")
	}
	skel, err := b.skeleton(spc, length, b.tmpID(spc.Src), b.tmpID(spc.Dst))
	if err != nil {
		return err
	}
	if err := edit.InsertElementary(w1, len(w1.Children), skel); err != nil {
		return fmt.Errorf("core: invalid scratch insertion: %w", err)
	}
	b.script.Ops = append(b.script.Ops, b.opFor(edit.Insert, skel, true))
	if err := b.deleteWhole(c1); err != nil {
		return err
	}
	if err := b.insertWhole(w1, -1, c2); err != nil {
		return err
	}
	op := b.opFor(edit.Delete, skel, true)
	if err := edit.DeleteElementary(skel); err != nil {
		return fmt.Errorf("core: invalid scratch deletion: %w", err)
	}
	b.script.Ops = append(b.script.Ops, op)
	return nil
}

func (b *scriptBuilder) tmpID(label string) string {
	b.tmpSeq++
	return fmt.Sprintf("%s~%d", label, b.tmpSeq)
}

// skeleton builds a branch-free run subtree deriving from
// specification node spn with exactly l leaves, using synthetic node
// instances src..dst. Lengths are allocated against the achievable
// branch-free length sets of the specification.
func (b *scriptBuilder) skeleton(spn *sptree.Node, l int, src, dst string) (*sptree.Node, error) {
	switch spn.Type {
	case sptree.Q:
		if l != 1 {
			return nil, fmt.Errorf("core: skeleton for an edge must have length 1, got %d", l)
		}
		n := sptree.NewQ(graph.Edge{From: graph.NodeID(src), To: graph.NodeID(dst)}, spn.Src, spn.Dst)
		n.Spec = spn
		return n, nil

	case sptree.P:
		for _, c := range spn.Children {
			if containsLen(b.eng.sp.AchievableLengths(c), l) {
				child, err := b.skeleton(c, l, src, dst)
				if err != nil {
					return nil, err
				}
				n := &sptree.Node{Type: sptree.P, Spec: spn, Src: spn.Src, Dst: spn.Dst}
				n.Adopt(child)
				return n, nil
			}
		}
		return nil, fmt.Errorf("core: no parallel branch achieves skeleton length %d", l)

	case sptree.F, sptree.L:
		child, err := b.skeleton(spn.Children[0], l, src, dst)
		if err != nil {
			return nil, err
		}
		n := &sptree.Node{Type: spn.Type, Spec: spn, Src: spn.Src, Dst: spn.Dst}
		n.Adopt(child)
		return n, nil

	case sptree.S:
		// suffix[i] = set of total lengths achievable by children i..
		k := len(spn.Children)
		maxL := b.eng.sp.G.NumEdges()
		suffix := make([][]bool, k+1)
		suffix[k] = make([]bool, maxL+1)
		suffix[k][0] = true
		for i := k - 1; i >= 0; i-- {
			suffix[i] = make([]bool, maxL+1)
			for _, li := range b.eng.sp.AchievableLengths(spn.Children[i]) {
				for rest := 0; li+rest <= maxL; rest++ {
					if suffix[i+1][rest] {
						suffix[i][li+rest] = true
					}
				}
			}
		}
		if l > maxL || !suffix[0][l] {
			return nil, fmt.Errorf("core: series skeleton length %d unachievable", l)
		}
		n := &sptree.Node{Type: sptree.S, Spec: spn, Src: spn.Src, Dst: spn.Dst}
		curSrc := src
		remaining := l
		for i, c := range spn.Children {
			chosen := -1
			for _, li := range b.eng.sp.AchievableLengths(c) {
				if li <= remaining && suffix[i+1][remaining-li] {
					chosen = li
					break
				}
			}
			if chosen < 0 {
				return nil, fmt.Errorf("core: series skeleton allocation failed")
			}
			curDst := dst
			if i < k-1 {
				curDst = b.tmpID(c.Dst)
			}
			child, err := b.skeleton(c, chosen, curSrc, curDst)
			if err != nil {
				return nil, err
			}
			n.Adopt(child)
			curSrc = curDst
			remaining -= chosen
		}
		return n, nil
	}
	return nil, fmt.Errorf("core: unknown specification node type %s", spn.Type)
}

func containsLen(ls []int, l int) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

// EvaluateScript prices an edit script under a (possibly different)
// cost model, as needed for the cost-model sensitivity experiment
// (Fig. 16): each operation is re-priced as γ'(length, src, dst).
func EvaluateScript(s *edit.Script, m interface {
	PathCost(length int, srcLabel, dstLabel string) float64
}) float64 {
	total := 0.0
	for _, op := range s.Ops {
		total += m.PathCost(op.Length, op.SrcLabel, op.DstLabel)
	}
	return total
}
