package sptree

import (
	"testing"

	"repro/internal/graph"
)

func q(from, to string) *Node {
	return NewQ(graph.Edge{From: graph.NodeID(from), To: graph.NodeID(to)}, from, to)
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{Q: "Q", S: "S", P: "P", F: "F", L: "L"} {
		if typ.String() != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

func TestNewInternalTerminals(t *testing.T) {
	s := NewInternal(S, q("a", "b"), q("b", "c"), q("c", "d"))
	if s.Src != "a" || s.Dst != "d" {
		t.Fatalf("S terminals = (%s,%s), want (a,d)", s.Src, s.Dst)
	}
	p := NewInternal(P, q("a", "b"), q("a", "b"))
	if p.Src != "a" || p.Dst != "b" {
		t.Fatalf("P terminals = (%s,%s), want (a,b)", p.Src, p.Dst)
	}
}

func TestInsertRemoveChild(t *testing.T) {
	s := NewInternal(S, q("a", "b"), q("b", "c"))
	mid := q("x", "y")
	s.InsertChild(1, mid)
	if len(s.Children) != 3 || s.Children[1] != mid {
		t.Fatalf("InsertChild misplaced: %v", s.Children)
	}
	if mid.Parent != s {
		t.Fatal("parent pointer not set")
	}
	got := s.RemoveChild(1)
	if got != mid || got.Parent != nil || len(s.Children) != 2 {
		t.Fatal("RemoveChild wrong")
	}
	if s.ChildIndex(mid) != -1 {
		t.Fatal("removed child still indexed")
	}
}

func TestLeavesAndCounts(t *testing.T) {
	tree := NewInternal(S, q("a", "b"), NewInternal(P, q("b", "c"), q("b", "c")), q("c", "d"))
	if n := tree.CountLeaves(); n != 4 {
		t.Fatalf("CountLeaves = %d, want 4", n)
	}
	if n := tree.CountNodes(); n != 6 {
		t.Fatalf("CountNodes = %d, want 6", n)
	}
	leaves := tree.Leaves()
	if len(leaves) != 4 || leaves[0].Src != "a" || leaves[3].Dst != "d" {
		t.Fatalf("Leaves order wrong: %v", leaves)
	}
}

func TestFinalizeAssignsPreorderIDs(t *testing.T) {
	tree := NewInternal(S, q("a", "b"), NewInternal(P, q("b", "c"), q("b", "c")))
	tree.Finalize()
	seen := map[int]bool{}
	prev := -1
	tree.Walk(func(n *Node) bool {
		if seen[n.ID] {
			t.Fatalf("duplicate ID %d", n.ID)
		}
		seen[n.ID] = true
		if n.ID <= prev {
			t.Fatalf("IDs not preorder: %d after %d", n.ID, prev)
		}
		prev = n.ID
		return true
	})
	if tree.ID != 0 {
		t.Fatalf("root ID = %d, want 0", tree.ID)
	}
}

func TestCloneIndependence(t *testing.T) {
	tree := NewInternal(S, q("a", "b"), q("b", "c"))
	c := tree.Clone()
	if !Equivalent(tree, c) {
		t.Fatal("clone not equivalent")
	}
	c.Children[0].Src = "zzz"
	if tree.Children[0].Src == "zzz" {
		t.Fatal("clone shares nodes with original")
	}
	if c.Children[0].Parent != c {
		t.Fatal("clone parent pointers broken")
	}
}

func TestCanonicalizeMergesAndFlattens(t *testing.T) {
	// S(S(q1,q2),q3) must canonicalize to S(q1,q2,q3).
	tree := NewInternal(S, NewInternal(S, q("a", "b"), q("b", "c")), q("c", "d"))
	c := Canonicalize(tree)
	if len(c.Children) != 3 || c.Type != S {
		t.Fatalf("canonicalization failed: %s", c)
	}
	// P of P merges too, and single-child wrappers vanish.
	tree2 := NewInternal(P, NewInternal(P, q("a", "b"), q("a", "b")), q("a", "b"))
	c2 := Canonicalize(tree2)
	if len(c2.Children) != 3 || c2.Type != P {
		t.Fatalf("P canonicalization failed: %s", c2)
	}
	if Canonicalize(q("a", "b")).Type != Q {
		t.Fatal("leaf canonicalization failed")
	}
}

func TestCanonicalizeRejectsAnnotated(t *testing.T) {
	f := &Node{Type: F}
	f.Adopt(q("a", "b"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic canonicalizing annotated tree")
		}
	}()
	Canonicalize(f)
}

func TestEquivalence(t *testing.T) {
	a := NewInternal(P, q("a", "b"), NewInternal(S, q("a", "c"), q("c", "b")))
	b := NewInternal(P, NewInternal(S, q("a", "c"), q("c", "b")), q("a", "b"))
	if !Equivalent(a, b) {
		t.Fatal("P reordering should be equivalent")
	}
	// S order is significant.
	s1 := NewInternal(S, q("a", "b"), q("b", "c"))
	s2 := NewInternal(S, q("b", "c"), q("a", "b"))
	if Equivalent(s1, s2) {
		t.Fatal("S reordering should not be equivalent")
	}
}

func TestLabelSignatureIgnoresInstances(t *testing.T) {
	mk := func(inst string) *Node {
		n := NewQ(graph.Edge{From: graph.NodeID("x" + inst), To: graph.NodeID("y" + inst)}, "x", "y")
		return NewInternal(P, n, NewQ(graph.Edge{From: graph.NodeID("x" + inst), To: graph.NodeID("y" + inst), Key: 1}, "x", "y"))
	}
	a, b := mk("a"), mk("b")
	if EquivalentRuns(a, b) == false {
		// Both are P nodes over two (x,y) edges with keys 0 and 1.
		t.Log(a.LabelSignature(), b.LabelSignature())
		t.Fatal("label signature should ignore instance names")
	}
	if Equivalent(a, b) {
		t.Fatal("edge-identity signature should distinguish instances")
	}
}

func TestTrueAndPseudo(t *testing.T) {
	p := NewInternal(P, q("a", "b"))
	if p.True() {
		t.Fatal("single-child node is pseudo")
	}
	p.Adopt(q("a", "b"))
	if !p.True() {
		t.Fatal("two-child node is true")
	}
}

func TestBranchFreeAndElementary(t *testing.T) {
	// P with one child (pseudo) is branch-free; with two it is not.
	pseudo := NewInternal(P, NewInternal(S, q("a", "c"), q("c", "b")))
	if !BranchFree(pseudo) {
		t.Fatal("pseudo P should be branch-free")
	}
	truP := NewInternal(P, q("a", "b"), q("a", "b"))
	if BranchFree(truP) {
		t.Fatal("true P is not branch-free")
	}
}

func TestValidateSpecTree(t *testing.T) {
	ok := NewInternal(S, q("a", "b"), NewInternal(P, q("b", "c"), q("b", "c")))
	ok.Finalize()
	if err := ValidateSpecTree(ok); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}

	// S under S violates alternation.
	bad := NewInternal(S, NewInternal(S, q("a", "b"), q("b", "c")), q("c", "d"))
	bad.Finalize()
	if err := ValidateSpecTree(bad); err == nil {
		t.Fatal("same-type parent not detected")
	}

	// Single-child P.
	bad2 := NewInternal(S, q("a", "b"), NewInternal(P, q("b", "c")))
	bad2.Finalize()
	if err := ValidateSpecTree(bad2); err == nil {
		t.Fatal("single-child P not detected")
	}

	// F with two children is invalid in a specification.
	f := &Node{Type: F}
	f.Adopt(q("a", "b"))
	f.Adopt(q("a", "b"))
	f.Finalize()
	if err := ValidateSpecTree(f); err == nil {
		t.Fatal("two-child specification F not detected")
	}

	// Q with children.
	brokenQ := q("a", "b")
	brokenQ.Adopt(q("a", "b"))
	brokenQ.Finalize()
	if err := ValidateSpecTree(brokenQ); err == nil {
		t.Fatal("Q with children not detected")
	}
}

func TestValidateRunTree(t *testing.T) {
	// Specification: S(q(a,b), P(q(b,c), S(q(b,d), q(d,c)))).
	specTree := NewInternal(S, q("a", "b"),
		NewInternal(P, q("b", "c"), NewInternal(S, q("b", "d"), q("d", "c"))))
	specTree.Finalize()

	mkRun := func(branch int) *Node {
		leaf := func(sp *Node, from, to string) *Node {
			n := NewQ(graph.Edge{From: graph.NodeID(from), To: graph.NodeID(to)}, sp.Src, sp.Dst)
			n.Spec = sp
			return n
		}
		sp := specTree
		run := &Node{Type: S, Spec: sp, Src: sp.Src, Dst: sp.Dst}
		run.Adopt(leaf(sp.Children[0], "aa", "ba"))
		pSpec := sp.Children[1]
		p := &Node{Type: P, Spec: pSpec, Src: pSpec.Src, Dst: pSpec.Dst}
		if branch == 0 {
			p.Adopt(leaf(pSpec.Children[0], "ba", "ca"))
		} else {
			sSpec := pSpec.Children[1]
			s := &Node{Type: S, Spec: sSpec, Src: sSpec.Src, Dst: sSpec.Dst}
			s.Adopt(leaf(sSpec.Children[0], "ba", "da"))
			s.Adopt(leaf(sSpec.Children[1], "da", "ca"))
			p.Adopt(s)
		}
		run.Adopt(p)
		run.Finalize()
		return run
	}

	if err := ValidateRunTree(mkRun(0), specTree); err != nil {
		t.Fatalf("valid run (branch 0) rejected: %v", err)
	}
	if err := ValidateRunTree(mkRun(1), specTree); err != nil {
		t.Fatalf("valid run (branch 1) rejected: %v", err)
	}

	// Duplicate P branch.
	dup := mkRun(0)
	p := dup.Children[1]
	p.Adopt(p.Children[0].Clone())
	p.Children[1].Parent = p
	if err := ValidateRunTree(dup, specTree); err == nil {
		t.Fatal("duplicate specification branch under P not detected")
	}

	// Missing S child.
	broken := mkRun(0)
	broken.RemoveChild(0)
	if err := ValidateRunTree(broken, specTree); err == nil {
		t.Fatal("missing series child not detected")
	}

	// Wrong root spec pointer.
	wrong := mkRun(0)
	wrong.Spec = specTree.Children[0]
	if err := ValidateRunTree(wrong, specTree); err == nil {
		t.Fatal("wrong root homology not detected")
	}
}
