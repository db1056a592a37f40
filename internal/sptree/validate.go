package sptree

import "fmt"

// ValidateSpecTree checks the structural invariants of an annotated
// specification SP-tree (Lemma 4.2, extended with L nodes per
// Section VI):
//
//  1. every internal node is S, P, F or L;
//  2. every leaf is a Q node;
//  3. every S or P node has a type different from its parent;
//  4. every S or P node has at least two children;
//  5. every F or L node has exactly one child, of type S, Q or P.
//
// Property 5 admits P children as the complete-subgraph generalization
// used for loops in Section VI (and by Fig. 17(b) for forks).
func ValidateSpecTree(root *Node) error {
	var rec func(n *Node) error
	rec = func(n *Node) error {
		switch n.Type {
		case Q:
			if len(n.Children) != 0 {
				return fmt.Errorf("sptree: Q node %d has %d children", n.ID, len(n.Children))
			}
			return nil
		case S, P:
			if len(n.Children) < 2 {
				return fmt.Errorf("sptree: %s node %d has %d children, want >= 2", n.Type, n.ID, len(n.Children))
			}
			if n.Parent != nil && n.Parent.Type == n.Type {
				return fmt.Errorf("sptree: %s node %d has parent of same type", n.Type, n.ID)
			}
		case F, L:
			if len(n.Children) != 1 {
				return fmt.Errorf("sptree: %s node %d has %d children, want exactly 1 in a specification tree", n.Type, n.ID, len(n.Children))
			}
			switch n.Children[0].Type {
			case S, Q, P:
			default:
				return fmt.Errorf("sptree: %s node %d has child of type %s, want S, Q or P", n.Type, n.ID, n.Children[0].Type)
			}
		default:
			return fmt.Errorf("sptree: node %d has unknown type %d", n.ID, uint8(n.Type))
		}
		if n.Spec != nil {
			return fmt.Errorf("sptree: specification node %d carries a Spec pointer", n.ID)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("sptree: node %d has child with broken parent pointer", n.ID)
			}
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if root.Parent != nil {
		return fmt.Errorf("sptree: root has a parent")
	}
	return rec(root)
}

// ValidateRunTree checks that root is a structurally valid annotated
// run tree for the specification tree spec (Lemma 4.4 plus the
// alignment induced by the tree execution function f′ of Section IV-C):
//
//   - every run node carries Spec = h(v), of matching type;
//   - an S node has exactly the specification's children, positionally
//     homologous;
//   - a P node has a nonempty subset of the specification's children,
//     all derived from distinct specification branches;
//   - an F or L node has one or more children, all derived from the
//     specification node's single child.
func ValidateRunTree(root, spec *Node) error {
	if root.Parent != nil {
		return fmt.Errorf("sptree: root has a parent")
	}
	if root.Spec != spec {
		return fmt.Errorf("sptree: root derives from specification node %v, want tree root", specID(root.Spec))
	}
	var rec func(n *Node) error
	rec = func(n *Node) error {
		h := n.Spec
		if h == nil {
			return fmt.Errorf("sptree: run node %d has no Spec pointer", n.ID)
		}
		if h.Type != n.Type {
			return fmt.Errorf("sptree: run node %d has type %s but derives from %s node %d", n.ID, n.Type, h.Type, h.ID)
		}
		switch n.Type {
		case Q:
			if len(n.Children) != 0 {
				return fmt.Errorf("sptree: run Q node %d has children", n.ID)
			}
			if n.Src != h.Src || n.Dst != h.Dst {
				return fmt.Errorf("sptree: run Q node %d terminals (%s,%s) disagree with specification edge (%s,%s)",
					n.ID, n.Src, n.Dst, h.Src, h.Dst)
			}
			return nil
		case S:
			if len(n.Children) != len(h.Children) {
				return fmt.Errorf("sptree: run S node %d has %d children, specification has %d", n.ID, len(n.Children), len(h.Children))
			}
			for i, c := range n.Children {
				if c.Spec != h.Children[i] {
					return fmt.Errorf("sptree: run S node %d child %d not positionally homologous", n.ID, i)
				}
			}
		case P:
			if len(n.Children) == 0 {
				return fmt.Errorf("sptree: run P node %d has no children", n.ID)
			}
			seen := make(map[*Node]bool, len(n.Children))
			for _, c := range n.Children {
				if c.Spec == nil || c.Spec.Parent != h {
					return fmt.Errorf("sptree: run P node %d has child not derived from a specification branch", n.ID)
				}
				if seen[c.Spec] {
					return fmt.Errorf("sptree: run P node %d has two children derived from the same specification branch", n.ID)
				}
				seen[c.Spec] = true
			}
		case F, L:
			if len(n.Children) == 0 {
				return fmt.Errorf("sptree: run %s node %d has no children", n.Type, n.ID)
			}
			want := h.Children[0]
			for _, c := range n.Children {
				if c.Spec != want {
					return fmt.Errorf("sptree: run %s node %d has a copy not derived from the specification child", n.Type, n.ID)
				}
			}
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("sptree: run node %d has child with broken parent pointer", n.ID)
			}
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(root)
}

func specID(n *Node) interface{} {
	if n == nil {
		return "<nil>"
	}
	return n.ID
}

// BranchFree reports whether T[n] is a branch-free subtree, i.e.
// contains no true P, F or L node (Definition 4.1; L nodes are handled
// like F nodes per Section VI).
func BranchFree(n *Node) bool {
	free := true
	n.Walk(func(v *Node) bool {
		if (v.Type == P || v.Type == F || v.Type == L) && v.True() {
			free = false
			return false
		}
		return true
	})
	return free
}
