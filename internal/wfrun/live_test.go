package wfrun_test

// Live derivation is checked differentially: replaying a completed
// run's event stream through Live must reproduce, byte for byte (via
// the snapshot codec), the run a from-scratch parse of its XML
// produces — in arrival order and under arbitrary shuffles.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/sptree"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// canonical encodes a run to XML and re-parses it, yielding the
// document-order run every other ingest path produces.
func canonical(t *testing.T, r *wfrun.Run, sp *spec.Spec) *wfrun.Run {
	t.Helper()
	var buf bytes.Buffer
	if err := wfxml.EncodeRun(&buf, r, "r"); err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := wfxml.DecodeRun(&buf, sp)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

// sameRun compares two runs exactly up to graph node-insertion order
// (which an event stream has no way, and no need, to reproduce): same
// derived tree over the same concrete edges, same labeled node set,
// same edge sequence in canonical order, same implicit edges.
func sameRun(a, b *wfrun.Run) error {
	if !sptree.Equivalent(a.Tree, b.Tree) {
		return fmt.Errorf("trees differ:\n%s\nvs\n%s", a.Tree, b.Tree)
	}
	an, bn := a.Graph.Nodes(), b.Graph.Nodes()
	if len(an) != len(bn) {
		return fmt.Errorf("node counts differ: %d vs %d", len(an), len(bn))
	}
	for _, n := range an {
		if a.Graph.Label(n) != b.Graph.Label(n) {
			return fmt.Errorf("node %s labels differ", n)
		}
	}
	ae, be := a.Graph.Edges(), b.Graph.Edges()
	sortEdges := func(es []graph.Edge) {
		sort.Slice(es, func(i, j int) bool {
			if es[i].From != es[j].From {
				return es[i].From < es[j].From
			}
			if es[i].To != es[j].To {
				return es[i].To < es[j].To
			}
			return es[i].Key < es[j].Key
		})
	}
	sortEdges(ae)
	sortEdges(be)
	if fmt.Sprint(ae) != fmt.Sprint(be) {
		return fmt.Errorf("edges differ: %v vs %v", ae, be)
	}
	ai := append([]graph.Edge(nil), a.ImplicitEdges...)
	bi := append([]graph.Edge(nil), b.ImplicitEdges...)
	sortEdges(ai)
	sortEdges(bi)
	if fmt.Sprint(ai) != fmt.Sprint(bi) {
		return fmt.Errorf("implicit edges differ: %v vs %v", ai, bi)
	}
	return nil
}

func frame(t *testing.T, r *wfrun.Run) []byte {
	t.Helper()
	b, err := codec.EncodeRun(r)
	if err != nil {
		t.Fatalf("codec: %v", err)
	}
	return b
}

func TestLiveMatchesFullDerivation(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp, err := gen.RandomSpec(gen.SpecConfig{Edges: 6 + rng.Intn(14), SeriesRatio: 1.5, Forks: 2, Loops: 2}, rng)
		if err != nil {
			t.Fatalf("seed %d: spec: %v", seed, err)
		}
		run, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		want := canonical(t, run, sp)
		evs := wfrun.Events(run)

		for pass := 0; pass < 2; pass++ {
			order := make([]int, len(evs))
			for i := range order {
				order[i] = i
			}
			if pass == 1 {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			lv := wfrun.NewLive(sp)
			for i, idx := range order {
				if err := lv.Append(evs[idx]); err != nil {
					t.Fatalf("seed %d pass %d: append %d: %v", seed, pass, i, err)
				}
			}
			counts := lv.Counts()
			got, err := lv.Complete()
			if err != nil {
				t.Fatalf("seed %d pass %d: complete: %v", seed, pass, err)
			}
			// The drift monitor compares the streaming histogram with a
			// stored run's: both must bucket instances identically.
			if c := got.LeafCounts(); fmt.Sprint(counts) != fmt.Sprint(c) {
				t.Fatalf("seed %d pass %d: live counts %v, completed run counts %v", seed, pass, counts, c)
			}
			if c := want.LeafCounts(); fmt.Sprint(counts) != fmt.Sprint(c) {
				t.Fatalf("seed %d pass %d: live counts %v, full derivation counts %v", seed, pass, counts, c)
			}
			if pass == 0 {
				// Arrival order: the exact run, edge for edge.
				if err := sameRun(got, want); err != nil {
					t.Fatalf("seed %d: live-derived run differs from full derivation: %v", seed, err)
				}
			} else {
				// Shuffled: parallel run edges are only identified by
				// arrival order, so their keys (and the key↔spec-ref
				// association) may permute; the runs must still be
				// label-equivalent, and the live result must survive
				// its own round trip exactly.
				if !sptree.EquivalentRuns(got.Tree, want.Tree) {
					t.Fatalf("seed %d shuffled: run not label-equivalent to full derivation:\n%s\nvs\n%s", seed, got.Tree, want.Tree)
				}
				if err := sameRun(got, canonical(t, got, sp)); err != nil {
					t.Fatalf("seed %d shuffled: round trip not stable: %v", seed, err)
				}
			}
		}
	}
}

// chainSpec builds a→b→c→d: an S-rooted spec of three edges.
func chainSpec(t *testing.T) *spec.Spec {
	t.Helper()
	g := graph.New()
	for _, id := range []string{"a", "b", "c", "d"} {
		g.MustAddNode(graph.NodeID(id), id)
	}
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "c")
	g.MustAddEdge("c", "d")
	sp, err := spec.New(g, nil, nil)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	return sp
}

func ev(from, to string) wfrun.Event {
	return wfrun.Event{From: from + "0", To: to + "0", FromLabel: from, ToLabel: to}
}

func TestLiveCountsAndErrors(t *testing.T) {
	sp := chainSpec(t)
	lv := wfrun.NewLive(sp)
	if err := lv.Append(wfrun.Event{From: "x", To: "y"}); err == nil {
		t.Fatal("expected error for unlabeled new nodes")
	}
	if err := lv.Append(wfrun.Event{From: "a0", To: "b0", FromLabel: "a", ToLabel: "nope"}); err == nil {
		t.Fatal("expected error for a label with no specification image")
	}
	if err := lv.Append(ev("a", "b")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := lv.Append(wfrun.Event{From: "a0", To: "c0", FromLabel: "b", ToLabel: "c"}); err == nil {
		t.Fatal("expected error for a conflicting node label")
	}
	if got := lv.Counts(); got[0] != 1 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("counts = %v, want [1 0 0]", got)
	}
	if _, err := lv.Complete(); err == nil {
		t.Fatal("expected completion to fail with unexecuted regions")
	}
}

func TestLiveCompleteIsTerminal(t *testing.T) {
	sp := chainSpec(t)
	lv := wfrun.NewLive(sp)
	for _, e := range []wfrun.Event{ev("a", "b"), ev("b", "c"), ev("c", "d")} {
		if err := lv.Append(e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	run, err := lv.Complete()
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := run.Validate(); err != nil {
		t.Fatalf("completed run invalid: %v", err)
	}
	if err := lv.Append(ev("a", "b")); err == nil {
		t.Fatal("expected append after completion to fail")
	}
	if _, err := lv.Complete(); err == nil {
		t.Fatal("expected second completion to fail")
	}
}

func TestLiveEventRoundTripThroughXML(t *testing.T) {
	// A live-completed run encodes to XML that decodes back to the
	// same frame — the invariant the store's completion path relies on.
	rng := rand.New(rand.NewSource(7))
	sp, err := gen.RandomSpec(gen.SpecConfig{Edges: 12, SeriesRatio: 1.5, Forks: 2, Loops: 2}, rng)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	run, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lv := wfrun.NewLive(sp)
	for i, e := range wfrun.Events(run) {
		if err := lv.Append(e); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	got, err := lv.Complete()
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	if !bytes.Equal(frame(t, got), frame(t, canonical(t, got, sp))) {
		t.Fatal("live-completed run does not survive an XML round trip")
	}
}

func TestLiveAcceptsLabeledSpecs(t *testing.T) {
	// Regression: resolve() once compared event node labels against
	// specification node IDs, which only agreed on specs whose modules
	// are labeled by their own identifiers. The protein annotation
	// workflow labels modules by task name ("getProteinSeq", ...), so
	// every spec-referenced event was rejected.
	sp, err := gen.ProteinAnnotation()
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	run, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lv := wfrun.NewLive(sp)
	for i, e := range wfrun.Events(run) {
		if err := lv.Append(e); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	got, err := lv.Complete()
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := sameRun(got, canonical(t, run, sp)); err != nil {
		t.Fatalf("live-derived run differs from full derivation: %v", err)
	}
}
