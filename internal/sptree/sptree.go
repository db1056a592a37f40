// Package sptree implements the annotated SP-tree representation of
// SP-workflow specifications and runs (Section IV of Bao et al.).
//
// An SP-tree captures the series/parallel decomposition of an SP-graph:
// leaves are Q nodes (single edges), internal nodes are S (series,
// ordered children) or P (parallel, unordered children). Annotated
// SP-trees additionally carry F (fork, unordered children) and L (loop,
// ordered children) nodes describing well-nested fork and loop
// executions.
//
// Trees are *semi-ordered*: the child order of S and L nodes is
// significant, the child order of P and F nodes is not. Two trees are
// equivalent (≡) iff they differ only in the order of children of P or
// F nodes (Lemma 4.3/4.5).
package sptree

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Type is the type of an SP-tree node.
type Type uint8

// Node types of annotated SP-trees.
const (
	Q Type = iota // leaf: a single edge of the underlying graph
	S             // series composition (children ordered)
	P             // parallel composition (children unordered)
	F             // fork execution (children unordered)
	L             // loop execution (children ordered)
)

// String returns the single-letter name of the type.
func (t Type) String() string {
	switch t {
	case Q:
		return "Q"
	case S:
		return "S"
	case P:
		return "P"
	case F:
		return "F"
	case L:
		return "L"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Node is a node of an annotated SP-tree. The same structure serves
// specification trees (Spec == nil) and run trees (Spec points at the
// specification-tree node the run node derives from, i.e. h(v) of
// Section V-A).
type Node struct {
	Type     Type
	Children []*Node
	Parent   *Node

	// Edge is, for Q leaves, the underlying graph edge: a
	// specification edge in specification trees, a run edge in run
	// trees.
	Edge graph.Edge

	// Spec is h(v): the specification-tree node this run-tree node
	// derives from. Nil in specification trees.
	Spec *Node

	// Src and Dst are the labels of the two terminals of
	// Graph(T[v]) — two invariants of v never changed by subtree
	// edit operations (Section IV-D).
	Src, Dst string

	// ID is a stable preorder identifier assigned by Finalize;
	// useful as a map key and in rendering.
	ID int
}

// NewQ returns a new Q leaf for the given edge with terminal labels.
func NewQ(e graph.Edge, src, dst string) *Node {
	return &Node{Type: Q, Edge: e, Src: src, Dst: dst}
}

// NewInternal returns a new internal node of the given type adopting
// the children. Terminal labels are derived from the children: for S
// and L the span from first to last child, otherwise the (common)
// terminals of the first child.
func NewInternal(t Type, children ...*Node) *Node {
	if t == Q {
		panic("sptree: NewInternal called with type Q")
	}
	n := &Node{Type: t}
	for _, c := range children {
		n.Adopt(c)
	}
	n.refreshTerminals()
	return n
}

func (n *Node) refreshTerminals() {
	if len(n.Children) == 0 {
		return
	}
	switch n.Type {
	case S:
		n.Src = n.Children[0].Src
		n.Dst = n.Children[len(n.Children)-1].Dst
	default:
		n.Src = n.Children[0].Src
		n.Dst = n.Children[0].Dst
	}
}

// Adopt appends child to n.Children and sets its parent pointer.
func (n *Node) Adopt(child *Node) {
	child.Parent = n
	n.Children = append(n.Children, child)
}

// InsertChild inserts child at position i (0 ≤ i ≤ len(Children)).
func (n *Node) InsertChild(i int, child *Node) {
	if i < 0 || i > len(n.Children) {
		panic(fmt.Sprintf("sptree: insert position %d out of range [0,%d]", i, len(n.Children)))
	}
	child.Parent = n
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = child
}

// RemoveChild removes the i-th child and returns it. The child's
// parent pointer is cleared.
func (n *Node) RemoveChild(i int) *Node {
	if i < 0 || i >= len(n.Children) {
		panic(fmt.Sprintf("sptree: remove position %d out of range [0,%d)", i, len(n.Children)))
	}
	c := n.Children[i]
	n.Children = append(n.Children[:i], n.Children[i+1:]...)
	c.Parent = nil
	return c
}

// ChildIndex returns the position of child among n's children, or -1.
func (n *Node) ChildIndex(child *Node) int {
	for i, c := range n.Children {
		if c == child {
			return i
		}
	}
	return -1
}

// IsLeaf reports whether n is a Q node.
func (n *Node) IsLeaf() bool { return n.Type == Q }

// True reports whether n is a true node, i.e. has more than one child
// (Section IV-D). Internal nodes with a single child are pseudo nodes.
func (n *Node) True() bool { return len(n.Children) > 1 }

// Leaves returns the Q nodes of the subtree in left-to-right order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(v *Node) bool {
		if v.Type == Q {
			out = append(out, v)
		}
		return true
	})
	return out
}

// CountLeaves returns the number of Q nodes in the subtree.
func (n *Node) CountLeaves() int {
	if n.Type == Q {
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += c.CountLeaves()
	}
	return total
}

// CountNodes returns the number of nodes in the subtree.
func (n *Node) CountNodes() int {
	total := 1
	for _, c := range n.Children {
		total += c.CountNodes()
	}
	return total
}

// Walk visits the subtree in preorder. If fn returns false the node's
// children are skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Finalize assigns preorder IDs and repairs parent pointers across the
// subtree. Call it once a tree is fully built.
func (n *Node) Finalize() {
	id := 0
	var rec func(v *Node)
	rec = func(v *Node) {
		v.ID = id
		id++
		for _, c := range v.Children {
			c.Parent = v
			rec(c)
		}
	}
	n.Parent = nil
	rec(n)
}

// Clone returns a deep copy of the subtree. Spec pointers are shared
// (they reference the immutable specification tree); parent pointers
// are rebuilt within the copy and the copy's root parent is nil.
func (n *Node) Clone() *Node {
	c := &Node{
		Type: n.Type,
		Edge: n.Edge,
		Spec: n.Spec,
		Src:  n.Src,
		Dst:  n.Dst,
		ID:   n.ID,
	}
	for _, child := range n.Children {
		c.Adopt(child.Clone())
	}
	return c
}

// Signature returns a canonical string for the subtree under
// semi-ordered equivalence: children of P and F nodes are sorted by
// their signatures, children of S and L nodes keep their order. Q
// leaves are rendered by their edge, so signatures distinguish runs by
// node-instance identity.
func (n *Node) Signature() string {
	return n.signature(func(q *Node) string { return q.Edge.String() })
}

// LabelSignature is like Signature but renders Q leaves by the labels
// of their endpoints (and the specification edge key), so two runs that
// differ only in node-instance naming — i.e. isomorphic runs — have
// equal label signatures.
func (n *Node) LabelSignature() string {
	return n.signature(func(q *Node) string {
		key := q.Edge.Key
		if q.Spec != nil {
			key = q.Spec.Edge.Key
		}
		return fmt.Sprintf("(%s,%s)#%d", q.Src, q.Dst, key)
	})
}

func (n *Node) signature(leaf func(*Node) string) string {
	if n.Type == Q {
		return "Q" + leaf(n)
	}
	parts := make([]string, len(n.Children))
	for i, c := range n.Children {
		parts[i] = c.signature(leaf)
	}
	if n.Type == P || n.Type == F {
		sort.Strings(parts)
	}
	return n.Type.String() + "(" + strings.Join(parts, ",") + ")"
}

// Equivalent reports whether two trees are equivalent (≡), i.e. equal
// up to reordering of children of P and F nodes, comparing Q leaves by
// edge identity.
func Equivalent(a, b *Node) bool { return a.Signature() == b.Signature() }

// EquivalentRuns reports whether two run trees represent the same run
// up to node-instance renaming (label-based equivalence).
func EquivalentRuns(a, b *Node) bool { return a.LabelSignature() == b.LabelSignature() }

// String renders the subtree as an indented multi-line listing.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if n.Type == Q {
		fmt.Fprintf(b, "Q %s", n.Edge)
	} else {
		fmt.Fprintf(b, "%s [%s..%s]", n.Type, n.Src, n.Dst)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}
