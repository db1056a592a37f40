package wfxml

import (
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/graph"
	"repro/internal/spec"
)

// minorSpec is an SP specification whose label pairs, with its two
// loop back edges (A,S) and (B,S), admit the forbidden minor of
// Theorem 1 as a run graph: S→A, S→B, A→B, A→S', B→S'. Every check
// before the SP reduction passes on that graph, so only the reduction
// rejects it.
func minorSpec(t testing.TB) *spec.Spec {
	t.Helper()
	g := graph.New()
	for _, n := range []string{"S", "A", "B", "T"} {
		g.MustAddNode(graph.NodeID(n), n)
	}
	sa := g.MustAddEdge("S", "A")
	ab := g.MustAddEdge("A", "B")
	sb := g.MustAddEdge("S", "B")
	g.MustAddEdge("B", "T")
	sp, err := spec.New(g, nil, []spec.EdgeSet{{sa}, {sa, ab, sb}})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestDecodeRunRejectionTexts pins the exact error of DecodeRun on
// malformed run documents, and acceptance where the XML rules accept:
// the decoder, the flow-network and homomorphism checks, edge
// classification, the SP reduction and f″ each own some of these
// texts, and none may change when those layers are rewritten.
func TestDecodeRunRejectionTexts(t *testing.T) {
	fig2 := fixtures.Fig2Spec()
	minor := minorSpec(t)
	twin := graph.New()
	twin.MustAddNode("S", "S")
	twin.MustAddNode("T", "T")
	twin.MustAddEdge("S", "T")
	twin.MustAddEdge("S", "T")
	multi, err := spec.New(twin, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := func(id, label string) string { return `<node id="` + id + `" label="` + label + `"/>` }
	e := func(from, to string) string { return `<edge from="` + from + `" to="` + to + `"/>` }
	run := func(parts ...string) string { return "<run>" + strings.Join(parts, "") + "</run>" }
	chain := run(n("1a", "1"), n("2a", "2"), n("3a", "3"), n("6a", "6"), n("7a", "7"),
		e("1a", "2a"), e("2a", "3a"), e("3a", "6a"), e("6a", "7a"))

	cases := []struct {
		name string
		sp   *spec.Spec
		doc  string
		want string // "" means accepted
	}{
		{"accepted chain", fig2, chain, ""},
		{"cycle", fig2, run(n("1a", "1"), n("2a", "2"), n("3a", "3"), n("7a", "7"),
			e("1a", "2a"), e("2a", "3a"), e("3a", "2a"), e("3a", "7a")),
			"wfrun: run graph has a cycle"},
		{"two sources", fig2, run(n("1a", "1"), n("1b", "1"), n("2a", "2"),
			e("1a", "2a"), e("1b", "2a")),
			"wfrun: graph: want exactly one source, have 2"},
		{"two sinks", fig2, run(n("1a", "1"), n("2a", "2"), n("2b", "2"),
			e("1a", "2a"), e("1a", "2b")),
			"wfrun: graph: want exactly one sink, have 2"},
		{"node off every path", fig2, run(n("1a", "1"), n("2a", "2"), n("3a", "3"), n("6a", "6"), n("7a", "7"),
			e("1a", "2a"), e("2a", "7a"), e("1a", "3a"), e("3a", "6a"), e("6a", "3a")),
			"wfrun: graph: node 3a is not on any 1a-7a path"},
		{"empty run", fig2, `<run/>`,
			"wfrun: graph: empty graph is not a flow network"},
		{"label pair absent", fig2, run(n("1a", "1"), n("3a", "3"), e("1a", "3a")),
			"wfrun: run edge (1a,3a) maps to (1,3), absent from the specification"},
		{"forbidden minor", minor, run(n("s", "S"), n("v1", "A"), n("v2", "B"), n("t", "S"),
			e("s", "v1"), e("s", "v2"), e("v1", "v2"), e("v1", "t"), e("v2", "t")),
			"wfrun: run graph is not series-parallel: spgraph: graph is not series-parallel (5 edges remain after reduction)"},
		{"unknown spec edge", fig2, run(n("1a", "1"), n("2a", "2"),
			`<edge from="1a" to="2a" specFrom="1" specTo="9"/>`),
			"wfrun: edge reference (1a,2a) -> (1,9) names an unknown specification edge"},
		{"ambiguous labels", multi, run(n("s", "S"), n("t", "T"), e("s", "t")),
			"wfrun: run edge (s,t): labels (S,T) are ambiguous (parallel specification edges); supply a specification reference"},
		{"partial run", fig2, run(n("1a", "1"), n("2a", "2"), n("3a", "3"), n("6a", "6"),
			e("1a", "2a"), e("2a", "3a"), e("3a", "6a")),
			"wfrun: series child 2 of 1..7 was not executed"},
		{"non-integer specKey", fig2, run(n("1a", "1"), n("2a", "2"),
			`<edge from="1a" to="2a" specFrom="1" specTo="2" specKey="one"/>`),
			`wfxml: strconv.ParseInt: parsing "one": invalid syntax`},
		{"blank specKey", fig2, run(n("1a", "1"), n("2a", "2"),
			`<edge from="1a" to="2a" specFrom="1" specTo="2" specKey=" "/>`),
			`wfxml: strconv.ParseInt: parsing "": invalid syntax`},
		{"non-bool implicit", fig2, run(n("1a", "1"), n("2a", "2"),
			`<edge from="1a" to="2a" implicit="perhaps"/>`),
			`wfxml: strconv.ParseBool: parsing "perhaps": invalid syntax`},
		{"first bad attribute wins", fig2, run(n("1a", "1"), n("2a", "2"),
			`<edge from="1a" to="2a" implicit="perhaps" specKey="one"/>`),
			`wfxml: strconv.ParseBool: parsing "perhaps": invalid syntax`},
		{"root other than run", fig2, `<specification><node id="1a" label="1"/></specification>`,
			"wfxml: expected element type <run> but have <specification>"},
		{"no element", fig2, `<?xml version="1.0"?><!-- nothing -->`, "wfxml: EOF"},
		{"empty input", fig2, ``, "wfxml: EOF"},
		{"truncated", fig2, `<run><node id="1a" label="1"/>`,
			"wfxml: XML syntax error on line 1: unexpected EOF"},
		{"mismatched end", fig2, `<run><node id="1a" label="1"></edge></run>`,
			"wfxml: XML syntax error on line 1: element <node> closed by </edge>"},
		{"duplicate node", fig2, run(n("1a", "1"), n("1a", "2")),
			`wfxml: graph: node 1a already exists with label "1" (got "2")`},
		{"empty node id", fig2, run(n("", "1")), "wfxml: graph: empty node id"},
		{"unknown endpoint", fig2, run(n("1a", "1"), e("1a", "zz")), "wfxml: graph: unknown node zz"},
		{"syntax error outranks node error", fig2, `<run>` + n("1a", "1") + n("1a", "2") + `<edge`,
			"wfxml: XML syntax error on line 1: unexpected EOF"},
		{"node error outranks edge error", fig2, run(e("1a", "zz"), n("1a", "1"), n("1a", "2")),
			`wfxml: graph: node 1a already exists with label "1" (got "2")`},
		{"trailing bytes after run", fig2, chain + `trailing <garbage`, ""},
		{"edges before nodes", fig2, run(e("1a", "2a"), e("2a", "3a"), e("3a", "6a"), e("6a", "7a"),
			n("1a", "1"), n("2a", "2"), n("3a", "3"), n("6a", "6"), n("7a", "7")), ""},
		{"unknown elements and attributes", fig2, `<?xml version="1.0"?><!-- c --><run name="r" extra="x"><meta><edge from="1a" to="9z"/></meta>` +
			`<node id="1a" label="1" color="red"><node id="zz" label="z"/></node>` +
			`<node id="2a" label="2"/>text<node id="3a" label="3"/><node id="6a" label="6"/><node id="7a" label="7"/>` +
			`<edge from="1a" to="2a" weight="3"><edge from="7a" to="1a"/></edge>` + e("2a", "3a") + e("3a", "6a") + e("6a", "7a") + `</run>`, ""},
		{"namespaced names and last attribute wins", fig2, `<p:run xmlns:p="urn:p" xmlns:q="urn:q">` +
			`<p:node id="x" q:id="1a" label="1"/>` + n("2a", "2") + n("3a", "3") + n("6a", "6") + n("7a", "7") +
			`<q:edge from="7a" from="1a" to="2a"/>` + e("2a", "3a") + e("3a", "6a") + e("6a", "7a") + `</p:run>`, ""},
		{"padded specKey and explicit reference", fig2, run(n("1a", "1"), n("2a", "2"), n("3a", "3"), n("6a", "6"), n("7a", "7"),
			`<edge from="1a" to="2a" specFrom="1" specTo="2" specKey=" 0 " implicit=""/>`, e("2a", "3a"), e("3a", "6a"), e("6a", "7a")), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRun(strings.NewReader(tc.doc), tc.sp)
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Fatalf("DecodeRun error\n got: %q\nwant: %q", got, tc.want)
			}
		})
	}
}
