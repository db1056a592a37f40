package view

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/wfrun"
)

// RenderDOT emits a Graphviz dot description of a run with edges
// colored by diff status, for users who prefer their own layout
// toolchain over the built-in SVG renderer. Node instances become dot
// nodes labeled "instance\nmodule"; implicit loop edges are dashed.
func RenderDOT(r *wfrun.Run, status map[graph.Edge]Status) string {
	var b strings.Builder
	b.WriteString("digraph run {\n  rankdir=TB;\n  node [shape=circle fontsize=10];\n")
	nodes := r.Graph.Nodes()
	order := make([]int, len(nodes))
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool { return nodes[order[i]] < nodes[order[j]] })
	for _, v := range order {
		n := nodes[v]
		fmt.Fprintf(&b, "  %q [label=\"%s\\n%s\"];\n", string(n), string(n), r.Graph.LabelAt(v))
	}
	edges := r.Graph.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Key < edges[j].Key
	})
	for _, e := range edges {
		attrs := []string{fmt.Sprintf("color=%q", statusColor(status[e]))}
		if status[e] == Implicit {
			attrs = append(attrs, "style=dashed")
		}
		if status[e] == Deleted || status[e] == Inserted {
			attrs = append(attrs, "penwidth=2")
		}
		fmt.Fprintf(&b, "  %q -> %q [%s];\n", string(e.From), string(e.To), strings.Join(attrs, " "))
	}
	b.WriteString("}\n")
	return b.String()
}
