package sptree

// TreeIndex is a flat, preorder view of a tree built in one pass by
// Index: it gives every node a dense integer identity, so callers can
// replace pointer-keyed maps with flat slices indexed by preorder ID.
// (The homology classes of run trees are ranked by Shapes.Prepare.)
//
// After indexing, Nodes[v.ID] == v for every node v of the tree.
//
// Indexing a tree whose IDs are already dense preorder (the state
// Finalize leaves behind, and what Execute/Derive produce) performs no
// writes to the tree, so already-finalized trees may be indexed from
// several goroutines concurrently. Trees with stale IDs are repaired
// in place and must not be indexed concurrently.
type TreeIndex struct {
	Nodes []*Node
}

// Index assigns dense preorder IDs (repairing stale ones) and returns
// the flat index of the subtree rooted at n in a single pass.
func (n *Node) Index() *TreeIndex {
	ti := &TreeIndex{}
	ti.Rebuild(n)
	return ti
}

// Rebuild re-indexes the subtree rooted at root, reusing the
// TreeIndex's buffers. It is the allocation-free path for callers that
// index many trees with one scratch TreeIndex.
func (ti *TreeIndex) Rebuild(root *Node) {
	ti.Nodes = ti.Nodes[:0]
	ti.walk(root)
}

func (ti *TreeIndex) walk(v *Node) {
	if id := len(ti.Nodes); v.ID != id {
		v.ID = id
	}
	ti.Nodes = append(ti.Nodes, v)
	for _, c := range v.Children {
		ti.walk(c)
	}
}

// Len returns the number of indexed nodes.
func (ti *TreeIndex) Len() int { return len(ti.Nodes) }
