package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, n := range []string{"s", "a", "b", "t"} {
		g.MustAddNode(NodeID(n), n)
	}
	g.MustAddEdge("s", "a")
	g.MustAddEdge("s", "b")
	g.MustAddEdge("a", "t")
	g.MustAddEdge("b", "t")
	return g
}

func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	if err := g.AddNode("x", "lab"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("x", "lab"); err != nil {
		t.Fatalf("re-adding identical node should be a no-op, got %v", err)
	}
	if err := g.AddNode("x", "other"); err == nil {
		t.Fatal("expected error re-adding node with different label")
	}
	if err := g.AddNode("", "lab"); err == nil {
		t.Fatal("expected error for empty node id")
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestAddEdgeUnknownEndpoint(t *testing.T) {
	g := New()
	g.MustAddNode("a", "a")
	if _, err := g.AddEdge("a", "b"); err == nil {
		t.Fatal("expected error for unknown target")
	}
	if _, err := g.AddEdge("b", "a"); err == nil {
		t.Fatal("expected error for unknown source")
	}
}

func TestParallelEdgeKeys(t *testing.T) {
	g := New()
	g.MustAddNode("a", "a")
	g.MustAddNode("b", "b")
	e0 := g.MustAddEdge("a", "b")
	e1 := g.MustAddEdge("a", "b")
	if e0.Key != 0 || e1.Key != 1 {
		t.Fatalf("parallel keys = %d, %d; want 0, 1", e0.Key, e1.Key)
	}
	if e0.String() != "(a,b)" || e1.String() != "(a,b)#1" {
		t.Fatalf("edge strings = %q, %q", e0.String(), e1.String())
	}
	if g.OutDegree("a") != 2 || g.InDegree("b") != 2 {
		t.Fatalf("degrees wrong: out=%d in=%d", g.OutDegree("a"), g.InDegree("b"))
	}
}

func TestSourceSink(t *testing.T) {
	g := diamond(t)
	s, err := g.Source()
	if err != nil || s != "s" {
		t.Fatalf("Source = %v, %v", s, err)
	}
	tt, err := g.Sink()
	if err != nil || tt != "t" {
		t.Fatalf("Sink = %v, %v", tt, err)
	}
	g.MustAddNode("u", "u") // isolated node: second source and sink
	if _, err := g.Source(); err == nil {
		t.Fatal("expected multiple-source error")
	}
}

func TestTopoOrderAndCycle(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[NodeID]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %s violates topological order", e)
		}
	}
	g.MustAddEdge("t", "s")
	if g.IsAcyclic() {
		t.Fatal("cycle not detected")
	}
}

func TestCheckFlowNetwork(t *testing.T) {
	g := diamond(t)
	s, tt, err := g.CheckFlowNetwork()
	if err != nil || s != "s" || tt != "t" {
		t.Fatalf("CheckFlowNetwork = %v,%v,%v", s, tt, err)
	}
	// A node off every s-t path.
	g2 := diamond(t)
	g2.MustAddNode("x", "x")
	g2.MustAddEdge("s", "x")
	if _, _, err := g2.CheckFlowNetwork(); err == nil {
		t.Fatal("expected error: x is a second sink")
	}
	if _, _, err := New().CheckFlowNetwork(); err == nil {
		t.Fatal("expected error for empty graph")
	}
}

func TestUniqueLabelsAndNodeByLabel(t *testing.T) {
	g := diamond(t)
	if !g.UniqueLabels() {
		t.Fatal("labels should be unique")
	}
	n, err := g.NodeByLabel("a")
	if err != nil || n != "a" {
		t.Fatalf("NodeByLabel = %v, %v", n, err)
	}
	g.MustAddNode("a2", "a")
	if g.UniqueLabels() {
		t.Fatal("duplicate label not detected")
	}
	if _, err := g.NodeByLabel("a"); err == nil {
		t.Fatal("expected ambiguity error")
	}
	if _, err := g.NodeByLabel("zzz"); err == nil {
		t.Fatal("expected missing-label error")
	}
}

func TestClonePreservesKeys(t *testing.T) {
	g := New()
	g.MustAddNode("a", "a")
	g.MustAddNode("b", "b")
	g.MustAddEdge("a", "b")
	g.MustAddEdge("a", "b")
	c := g.Clone()
	if c.String() != g.String() {
		t.Fatalf("clone differs:\n%s\nvs\n%s", c, g)
	}
	c.MustAddNode("z", "z")
	if g.HasNode("z") {
		t.Fatal("clone is not independent")
	}
}

func TestStringDeterministic(t *testing.T) {
	g := diamond(t)
	s := g.String()
	if !strings.Contains(s, "s[s]") || !strings.Contains(s, "(a,t)") {
		t.Fatalf("unexpected rendering: %s", s)
	}
	if s != g.String() {
		t.Fatal("String not deterministic")
	}
}

func TestFindHomomorphism(t *testing.T) {
	spec := diamond(t)
	run := New()
	for _, n := range []struct{ id, label string }{
		{"sa", "s"}, {"aa", "a"}, {"ab", "a"}, {"ta", "t"},
	} {
		run.MustAddNode(NodeID(n.id), n.label)
	}
	run.MustAddEdge("sa", "aa")
	run.MustAddEdge("sa", "ab")
	run.MustAddEdge("aa", "ta")
	run.MustAddEdge("ab", "ta")
	h, err := FindHomomorphism(run, spec)
	if err != nil {
		t.Fatal(err)
	}
	if h["aa"] != "a" || h["ab"] != "a" || h["sa"] != "s" {
		t.Fatalf("homomorphism wrong: %v", h)
	}
}

func TestFindHomomorphismRejectsBadEdge(t *testing.T) {
	spec := diamond(t)
	run := New()
	run.MustAddNode("sa", "s")
	run.MustAddNode("ba", "b")
	run.MustAddNode("aa", "a")
	run.MustAddNode("ta", "t")
	run.MustAddEdge("sa", "ba")
	run.MustAddEdge("ba", "aa") // (b,a) is not a specification edge
	run.MustAddEdge("aa", "ta")
	if _, err := FindHomomorphism(run, spec); err == nil {
		t.Fatal("expected rejection of edge with no specification image")
	}
}

func TestFindHomomorphismRejectsUnknownLabel(t *testing.T) {
	spec := diamond(t)
	run := New()
	run.MustAddNode("sa", "s")
	run.MustAddNode("xa", "x")
	run.MustAddNode("ta", "t")
	run.MustAddEdge("sa", "xa")
	run.MustAddEdge("xa", "ta")
	if _, err := FindHomomorphism(run, spec); err == nil {
		t.Fatal("expected rejection of unknown label")
	}
}

func TestElementaryPath(t *testing.T) {
	g := New()
	for _, n := range []string{"s", "x", "y", "t", "z"} {
		g.MustAddNode(NodeID(n), n)
	}
	// Two parallel paths s->x->y->t and s->z->t make the internal
	// nodes degree-1 and the terminals branch.
	g.MustAddEdge("s", "x")
	g.MustAddEdge("x", "y")
	g.MustAddEdge("y", "t")
	g.MustAddEdge("s", "z")
	g.MustAddEdge("z", "t")
	if err := ElementaryPath(g, []NodeID{"s", "x", "y", "t"}); err != nil {
		t.Fatalf("valid elementary path rejected: %v", err)
	}
	if err := ElementaryPath(g, []NodeID{"s", "x"}); err == nil {
		t.Fatal("path ending at degree-1 node x should be rejected")
	}
	if err := ElementaryPath(g, []NodeID{"s"}); err == nil {
		t.Fatal("zero-edge path should be rejected")
	}
	if err := ElementaryPath(g, []NodeID{"s", "y", "t"}); err == nil {
		t.Fatal("path with missing edge should be rejected")
	}
}

// TestBuildMatchesAddEdge: a graph built from index tables has the
// edges, keys, adjacency and ID lookups of the same graph replayed
// through AddNode and AddEdge, and AddEdge on it keys new parallel
// edges as it would on the replayed one.
func TestBuildMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		ids := make([]NodeID, n)
		labels := make([]string, n)
		replay := New()
		for v := range ids {
			ids[v] = NodeID(fmt.Sprintf("n%d", v))
			labels[v] = fmt.Sprintf("l%d", v%3)
			replay.MustAddNode(ids[v], labels[v])
		}
		ends := make([][2]int32, rng.Intn(40))
		count := make(map[[2]int32]int)
		for i := range ends {
			ends[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
			e := replay.MustAddEdge(ids[ends[i][0]], ids[ends[i][1]])
			if e.Key != count[ends[i]] {
				t.Fatalf("AddEdge keyed edge %d as %d, want %d", i, e.Key, count[ends[i]])
			}
			count[ends[i]]++
		}
		built := Build(append([]NodeID(nil), ids...), append([]string(nil), labels...), append([][2]int32(nil), ends...))
		if built.String() != replay.String() {
			t.Fatalf("built graph\n%s\nreplayed\n%s", built, replay)
		}
		for i := range ends {
			if built.EdgeAt(i) != replay.EdgeAt(i) {
				t.Fatalf("edge %d built as %s, replayed as %s", i, built.EdgeAt(i), replay.EdgeAt(i))
			}
		}
		for v, id := range ids {
			if built.NodeIndex(id) != v || built.Label(id) != labels[v] || built.OutDegree(id) != replay.OutDegree(id) ||
				built.InDegree(id) != replay.InDegree(id) || fmt.Sprint(built.Out(id)) != fmt.Sprint(replay.Out(id)) {
				t.Fatalf("node %s: built and replayed graphs disagree", id)
			}
		}
		u, v := ids[rng.Intn(n)], ids[rng.Intn(n)]
		if a, b := built.MustAddEdge(u, v), replay.MustAddEdge(u, v); a != b {
			t.Fatalf("AddEdge after Build = %s, after replay %s", a, b)
		}
		built.MustAddNode("extra", "x")
		replay.MustAddNode("extra", "x")
		if a, b := built.MustAddEdge("extra", u), replay.MustAddEdge("extra", u); a != b || built.String() != replay.String() {
			t.Fatalf("AddNode and AddEdge after Build = %s, after replay %s", a, b)
		}
	}
}

// TestParallelKeysAtHighFanOut keys a fork node's edges to many
// targets, each target also fed by many sources, and many parallel
// copies of one edge.
func TestParallelKeysAtHighFanOut(t *testing.T) {
	g := New()
	const k = 2000
	g.MustAddNode("hub", "hub")
	for i := 0; i < k; i++ {
		g.MustAddNode(NodeID(fmt.Sprint(i)), "leaf")
		if e := g.MustAddEdge("hub", NodeID(fmt.Sprint(i))); e.Key != 0 {
			t.Fatalf("first hub edge to %d keyed %d", i, e.Key)
		}
	}
	for i := 0; i < k; i++ {
		if e := g.MustAddEdge("hub", "0"); e.Key != i+1 {
			t.Fatalf("parallel copy %d keyed %d", i+1, e.Key)
		}
	}
}
