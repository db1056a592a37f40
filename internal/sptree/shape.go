package sptree

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
)

// shapeCap bounds a Shapes table: a preparation that finds the table
// holding this many shapes starts a new generation. It is a variable
// only so tests can force a rollover with a small cap.
var shapeCap = 1 << 16

// Shapes hash-conses the run trees of one specification (Filliâtre &
// Conchon, "Type-Safe Modular Hash-Consing", ML Workshop 2006). Every
// run-tree node gets a shape ID, a dense int32 interned from the key
//
//	(type, specification node ID, child shape IDs)
//
// with the child IDs sorted for P and F nodes and kept in order for S
// and L nodes. A Q leaf's key is its specification node, i.e. its
// specification edge. Two nodes of one generation therefore share a
// shape exactly when their subtrees are equal up to the order of the
// children of P and F nodes, comparing leaves by specification edge.
// Keys are compared in full by the map; equal hashes never make equal
// shapes.
//
// A shape also fixes every PathCost the deletion DP of a subtree asks
// for: a run node's Src and Dst labels are those of its specification
// node (Execute, Derive and the codec all copy them from it), so two
// equal-shape subtrees cost the same under any cost model.
//
// The table grows by the shapes of each tree prepared. Past shapeCap
// entries it starts a new generation: IDs of different generations are
// unrelated, so data prepared under an older generation is recomputed
// on its next use, and a consumer that keys state by shape ID resets
// it when the generation changes. Shapes is safe for concurrent use.
type Shapes struct {
	specNodes int
	gen       atomic.Uint64

	mu   sync.Mutex
	ids  map[string]int32
	key  []byte  // key encoding scratch
	kids []int32 // child shape scratch
}

// NewShapes returns an empty table for the run trees of a
// specification whose tree has specNodes nodes.
func NewShapes(specNodes int) *Shapes {
	return &Shapes{specNodes: specNodes, ids: make(map[string]int32)}
}

// Prepared is the diff-ready data of one run tree, computed once per
// tree and shape generation by Shapes.Prepare and never written again.
// It takes 8 bytes per tree node and 4 per specification node.
type Prepared struct {
	// Root is the tree the data was computed from; replacing a run's
	// tree makes its data stale.
	Root *Node
	// Gen is the shape generation the IDs in Shape belong to.
	Gen uint64
	// Shape[v.ID] is v's shape ID.
	Shape []int32
	// Rank[v.ID] is v's preorder rank among the nodes of its
	// homology class h(v), or -1 when v.Spec is nil.
	Rank []int32
	// Size[s] is the number of nodes whose class is the
	// specification node with ID s.
	Size []int32
}

// Prepare returns the prepared data of the trees rooted at a and b, in
// one generation. slotA and slotB cache each tree's data: a slot whose
// data is current (same root, current generation) is reused, any other
// is recomputed under the table lock and stored back. Preparing a tree
// assigns dense preorder IDs to its nodes, repairing stale ones in
// place; after that the tree must not change while its data is in use.
func (t *Shapes) Prepare(a *Node, slotA *atomic.Pointer[Prepared], b *Node, slotB *atomic.Pointer[Prepared]) (*Prepared, *Prepared) {
	g := t.gen.Load()
	pa, pb := slotA.Load(), slotB.Load()
	if current(pa, a, g) && current(pb, b, g) {
		return pa, pb
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ids) >= shapeCap {
		t.ids = make(map[string]int32)
		t.gen.Add(1)
	}
	g = t.gen.Load()
	return t.load(a, slotA, g), t.load(b, slotB, g)
}

func current(p *Prepared, root *Node, gen uint64) bool {
	return p != nil && p.Root == root && p.Gen == gen
}

// load returns slot's data if current, else computes and stores it.
// Caller holds t.mu.
func (t *Shapes) load(root *Node, slot *atomic.Pointer[Prepared], gen uint64) *Prepared {
	if p := slot.Load(); current(p, root, gen) {
		return p
	}
	n := root.CountNodes()
	buf := make([]int32, 2*n+t.specNodes)
	p := &Prepared{Root: root, Gen: gen, Shape: buf[:n:n], Rank: buf[n : 2*n : 2*n], Size: buf[2*n:]}
	next := 0
	t.walk(root, p, &next)
	slot.Store(p)
	return p
}

// walk assigns v its preorder ID and class rank, then interns the
// shapes of its subtree bottom-up.
func (t *Shapes) walk(v *Node, p *Prepared, next *int) {
	id := *next
	*next++
	if v.ID != id {
		v.ID = id
	}
	spec := int32(-1)
	p.Rank[id] = -1
	if v.Spec != nil {
		spec = int32(v.Spec.ID)
		p.Rank[id] = p.Size[spec]
		p.Size[spec]++
	}
	for _, c := range v.Children {
		t.walk(c, p, next)
	}
	t.kids = t.kids[:0]
	for _, c := range v.Children {
		t.kids = append(t.kids, p.Shape[c.ID])
	}
	if v.Type == P || v.Type == F {
		slices.Sort(t.kids)
	}
	t.key = append(t.key[:0], byte(v.Type))
	t.key = binary.LittleEndian.AppendUint32(t.key, uint32(spec))
	for _, k := range t.kids {
		t.key = binary.LittleEndian.AppendUint32(t.key, uint32(k))
	}
	s, ok := t.ids[string(t.key)]
	if !ok {
		s = int32(len(t.ids))
		t.ids[string(t.key)] = s
	}
	p.Shape[id] = s
}
