package sptree

import (
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// buildIndexFixture returns a small "specification" tree and a "run"
// tree whose nodes point at spec nodes, with fork copies producing a
// multi-member homology class.
func buildIndexFixture() (spec, run *Node) {
	e := func(a, b string) graph.Edge {
		return graph.Edge{From: graph.NodeID(a), To: graph.NodeID(b)}
	}
	sq1 := NewQ(e("1", "2"), "1", "2")
	sq2 := NewQ(e("2", "3"), "2", "3")
	spec = NewInternal(S, sq1, sq2)
	spec.Finalize()

	q1 := NewQ(e("1a", "2a"), "1", "2")
	q1.Spec = sq1
	q2a := NewQ(e("2a", "3a"), "2", "3")
	q2a.Spec = sq2
	q2b := NewQ(e("2a", "3a"), "2", "3")
	q2b.Spec = sq2
	f := NewInternal(F, q2a, q2b)
	f.Spec = sq2
	run = NewInternal(S, q1, f)
	run.Spec = spec
	return spec, run
}

func TestIndexAssignsDensePreorder(t *testing.T) {
	_, run := buildIndexFixture()
	// Deliberately stale IDs: Index must repair them.
	run.Walk(func(v *Node) bool { v.ID = 99; return true })
	ti := run.Index()
	if ti.Len() != run.CountNodes() {
		t.Fatalf("indexed %d nodes, tree has %d", ti.Len(), run.CountNodes())
	}
	for id, v := range ti.Nodes {
		if v.ID != id {
			t.Fatalf("Nodes[%d].ID = %d", id, v.ID)
		}
	}
	// Preorder: parent before child.
	run.Walk(func(v *Node) bool {
		for _, c := range v.Children {
			if c.ID <= v.ID {
				t.Fatalf("child ID %d not after parent ID %d", c.ID, v.ID)
			}
		}
		return true
	})
}

func TestPreparedHomologyClasses(t *testing.T) {
	spec, run := buildIndexFixture()
	// Deliberately stale IDs: Prepare must repair them.
	run.Walk(func(v *Node) bool { v.ID = 99; return true })
	var slot atomic.Pointer[Prepared]
	p, _ := NewShapes(spec.CountNodes()).Prepare(run, &slot, run, &slot)
	counts := map[int]int{}
	seen := map[[2]int32]bool{}
	id := 0
	run.Walk(func(v *Node) bool {
		if v.ID != id {
			t.Fatalf("node at preorder %d has ID %d", id, v.ID)
		}
		id++
		r := p.Rank[v.ID]
		if v.Spec == nil {
			if r != -1 {
				t.Fatalf("node %d: spec-less node has rank %d", v.ID, r)
			}
			return true
		}
		s := v.Spec.ID
		if r < 0 || r >= p.Size[s] {
			t.Fatalf("node %d: rank %d out of range [0,%d)", v.ID, r, p.Size[s])
		}
		if seen[[2]int32{int32(s), r}] {
			t.Fatalf("node %d: duplicate (class, rank) = (%d, %d)", v.ID, s, r)
		}
		seen[[2]int32{int32(s), r}] = true
		counts[s]++
		return true
	})
	for s, n := range counts {
		if int(p.Size[s]) != n {
			t.Fatalf("class %d size %d, counted %d", s, p.Size[s], n)
		}
	}
	// The fork leaf class (spec ID of sq2) holds the F node and both
	// copies: 3 members.
	sq2 := spec.Children[1]
	if got := p.Size[sq2.ID]; got != 3 {
		t.Fatalf("class of second spec leaf has %d members, want 3", got)
	}
	// The two fork copies are equal; the F node and its parent are not.
	f := run.Children[1]
	if p.Shape[f.Children[0].ID] != p.Shape[f.Children[1].ID] {
		t.Fatal("equal fork copies got different shapes")
	}
	if p.Shape[f.ID] == p.Shape[f.Children[0].ID] || p.Shape[run.ID] == p.Shape[f.ID] {
		t.Fatal("different subtrees share a shape")
	}
}

func TestIndexRebuildReuse(t *testing.T) {
	_, run := buildIndexFixture()
	run.Finalize()
	ti := run.Index()
	first := ti.Len()
	// Rebuilding on a finalized tree must not grow and must not write.
	before := make([]int, 0, first)
	run.Walk(func(v *Node) bool { before = append(before, v.ID); return true })
	ti.Rebuild(run)
	if ti.Len() != first {
		t.Fatalf("rebuild changed length %d -> %d", first, ti.Len())
	}
	i := 0
	run.Walk(func(v *Node) bool {
		if v.ID != before[i] {
			t.Fatalf("rebuild changed ID of node %d", i)
		}
		i++
		return true
	})
}
