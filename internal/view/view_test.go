package view

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/fixtures"
	"repro/internal/graph"
)

func fig2Diff(t *testing.T) *Diff {
	t.Helper()
	sp := fixtures.Fig2Spec()
	r1 := fixtures.Fig2R1(sp)
	r2 := fixtures.Fig2R2(sp)
	d, err := New(r1, r2, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEdgeClassification(t *testing.T) {
	d := fig2Diff(t)
	s1 := d.EdgeStatus1()
	s2 := d.EdgeStatus2()
	if len(s1) != d.R1.NumEdges() || len(s2) != d.R2.NumEdges() {
		t.Fatal("every edge must be classified")
	}
	// R1's (2a,3b,6a) copy is deleted per the Fig. 3 script.
	del := 0
	for e, st := range s1 {
		if st == Deleted {
			del++
			if d.R1.Graph.Label(e.From) == "1" {
				t.Fatalf("edge %s should not be deleted", e)
			}
		}
		if st == Inserted {
			t.Fatalf("source edges can never be 'inserted'")
		}
	}
	if del != 2 {
		t.Fatalf("deleted edges = %d, want 2 (the 3b copy)", del)
	}
	ins := 0
	for _, st := range s2 {
		if st == Inserted {
			ins++
		}
	}
	// Inserted: the (2a,4b,6a) copy (2 edges) plus the whole second
	// workflow copy (6 edges).
	if ins != 8 {
		t.Fatalf("inserted edges = %d, want 8", ins)
	}
}

func TestSummary(t *testing.T) {
	d := fig2Diff(t)
	sum := d.Summary()
	for _, want := range []string{"edit distance: 4", "source run:", "target run:", "edit script: 4 operations"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestClusters(t *testing.T) {
	d := fig2Diff(t)
	root := d.Clusters(0)
	if len(root) != 1 {
		t.Fatalf("depth 0 should have one cluster, got %d", len(root))
	}
	if !root[0].Changed() {
		t.Fatal("the whole workflow changed")
	}
	total := root[0].Kept + root[0].Deleted + root[0].Inserted
	if total != d.R1.Tree.CountLeaves()+d.R2.Tree.CountLeaves() {
		t.Fatalf("cluster tally %d != total leaves %d", total,
			d.R1.Tree.CountLeaves()+d.R2.Tree.CountLeaves())
	}
	deeper := d.Clusters(3)
	if len(deeper) <= 1 {
		t.Fatal("deeper zoom should split clusters")
	}
	// Tallies must be preserved across depths.
	k, del, ins := 0, 0, 0
	for _, c := range deeper {
		k += c.Kept
		del += c.Deleted
		ins += c.Inserted
	}
	if k != root[0].Kept || del != root[0].Deleted || ins != root[0].Inserted {
		t.Fatal("zooming must preserve totals")
	}
	report := d.ClusterReport(3)
	if !strings.Contains(report, "*") {
		t.Fatalf("report should mark changed clusters:\n%s", report)
	}
}

func TestRenderSVG(t *testing.T) {
	d := fig2Diff(t)
	svg := RenderSVG(d.R1, d.EdgeStatus1())
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(svg, "#cc2222") {
		t.Fatal("deleted edges should be red")
	}
	// Every node instance must appear.
	for _, n := range d.R1.Graph.Nodes() {
		if !strings.Contains(svg, ">"+string(n)+"<") {
			t.Fatalf("node %s missing from SVG", n)
		}
	}
}

func TestRenderSVGWithLoops(t *testing.T) {
	sp := fixtures.Fig2SpecWithLoop()
	r3 := fixtures.Fig2R3(sp)
	one := fixtures.Fig2R3(sp)
	d, err := New(r3, one, cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	svg := RenderSVG(d.R1, d.EdgeStatus1())
	if !strings.Contains(svg, "stroke-dasharray") {
		t.Fatal("implicit edges should be dashed")
	}
	if d.Result.Distance != 0 {
		t.Fatalf("identical runs should have distance 0, got %g", d.Result.Distance)
	}
}

func TestHTML(t *testing.T) {
	d := fig2Diff(t)
	page := d.HTML("Fig. 2 example")
	for _, want := range []string{"<!DOCTYPE html>", "Source run", "Target run", "Edit script", "Composite modules"} {
		if !strings.Contains(page, want) {
			t.Fatalf("HTML missing %q", want)
		}
	}
	if !strings.Contains(page, "&#9632;") {
		t.Fatal("legend missing")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{Kept: "kept", Deleted: "deleted", Inserted: "inserted", Implicit: "implicit"} {
		if s.String() != want {
			t.Fatalf("Status(%d) = %q", s, s.String())
		}
	}
	if Status(99).String() != "unknown" {
		t.Fatal("unknown status")
	}
	var zero graph.Edge
	_ = zero
}

func TestHTMLInteractiveStepping(t *testing.T) {
	d := fig2Diff(t)
	page := d.HTML("step")
	for _, want := range []string{`id="script"`, "data-nodes=", "wfnode", "<script>", "With detected path replacements"} {
		if !strings.Contains(page, want) {
			t.Fatalf("HTML missing %q", want)
		}
	}
	// Every op appears as a list item.
	if got := strings.Count(page, `class="op"`); got != len(d.Script.Ops) {
		t.Fatalf("script items = %d, want %d", got, len(d.Script.Ops))
	}
}
