package view

import (
	"fmt"
	"html"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/wfrun"
)

// layout assigns layered coordinates to a run graph: x by longest
// distance from the source, y by order within the layer.
type layout struct {
	pos    map[graph.NodeID][2]int
	layers int
	tall   int
}

func layoutRun(g *graph.Graph) layout {
	order, err := g.TopoOrder()
	if err != nil {
		return layout{pos: map[graph.NodeID][2]int{}}
	}
	out := make(map[graph.NodeID][]graph.Edge, len(order))
	for _, e := range g.Edges() {
		out[e.From] = append(out[e.From], e)
	}
	depth := make(map[graph.NodeID]int, len(order))
	for _, n := range order {
		for _, e := range out[n] {
			if d := depth[n] + 1; d > depth[e.To] {
				depth[e.To] = d
			}
		}
	}
	byLayer := map[int][]graph.NodeID{}
	maxLayer := 0
	for _, n := range order {
		d := depth[n]
		byLayer[d] = append(byLayer[d], n)
		if d > maxLayer {
			maxLayer = d
		}
	}
	l := layout{pos: make(map[graph.NodeID][2]int, len(order)), layers: maxLayer + 1}
	for d := 0; d <= maxLayer; d++ {
		ns := byLayer[d]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		for i, n := range ns {
			l.pos[n] = [2]int{d, i}
			if i+1 > l.tall {
				l.tall = i + 1
			}
		}
	}
	return l
}

const (
	cellW, cellH = 110, 64
	margin       = 40
	radius       = 16
)

func statusColor(s Status) string {
	switch s {
	case Deleted:
		return "#cc2222"
	case Inserted:
		return "#22aa44"
	case Implicit:
		return "#8888cc"
	}
	return "#999999"
}

// runCanvas computes the layered layout of a run graph and the canvas
// it needs — the single source of the SVG dimension arithmetic.
func runCanvas(g *graph.Graph) (l layout, width, height int) {
	l = layoutRun(g)
	width = margin*2 + (l.layers-1)*cellW + 2*radius
	height = margin*2 + (l.tall-1)*cellH + 2*radius
	if l.tall == 0 {
		height = margin * 2
	}
	return l, width, height
}

// RenderSVG draws a run graph with edges colored by diff status
// (red = deleted, green = inserted, gray = kept, blue dashed =
// implicit loop edges), in the style of the prototype's run panes.
func RenderSVG(r *wfrun.Run, status map[graph.Edge]Status) string {
	l, width, height := runCanvas(r.Graph)
	return renderSVG(r, status, l, width, height)
}

func renderSVG(r *wfrun.Run, status map[graph.Edge]Status, l layout, width, height int) string {
	return renderGraph(r.Graph, status, l, width, height)
}

// renderGraph draws any layered flow graph with status-colored edges —
// the shared core of the run panes and the spec-evolution overlay.
func renderGraph(g *graph.Graph, status map[graph.Edge]Status, l layout, width, height int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		width, height, width, height)
	b.WriteString(`<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="6" markerHeight="6" orient="auto-start-reverse"><path d="M 0 0 L 10 5 L 0 10 z" fill="context-stroke"/></marker></defs>`)
	coord := func(n graph.NodeID) (int, int) {
		p := l.pos[n]
		return margin + radius + p[0]*cellW, margin + radius + p[1]*cellH
	}
	edges := g.Edges()
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
		x1, y1 := coord(e.From)
		x2, y2 := coord(e.To)
		st := status[e]
		dash := ""
		if st == Implicit {
			dash = ` stroke-dasharray="6,4"`
		}
		// Offset parallel edges so they stay distinguishable.
		off := e.Key * 6
		fmt.Fprintf(&b,
			`<path d="M %d %d C %d %d, %d %d, %d %d" fill="none" stroke="%s" stroke-width="2"%s marker-end="url(#arrow)"/>`,
			x1, y1, (x1+x2)/2, y1+off, (x1+x2)/2, y2+off, x2, y2, statusColor(st), dash)
	}
	nodes := g.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		x, y := coord(n)
		fmt.Fprintf(&b, `<circle class="wfnode" data-inst="%s" cx="%d" cy="%d" r="%d" fill="#ffffff" stroke="#333333" stroke-width="1.5"/>`,
			html.EscapeString(string(n)), x, y, radius)
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle" dominant-baseline="middle" font-size="10" font-family="monospace">%s</text>`,
			x, y, html.EscapeString(string(n)))
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// PairSVG renders the prototype's two run panes — source with deleted
// paths in red, target with inserted paths in green — side by side in
// one standalone SVG document, captioned with the edit distance. This
// is the image the diff service ships for `GET .../svg`.
func (d *Diff) PairSVG(srcTitle, dstTitle string) string {
	l1, w1, h1 := runCanvas(d.R1.Graph)
	l2, w2, h2 := runCanvas(d.R2.Graph)
	const gap, caption = 24, 22
	width := w1 + gap + w2
	height := max(h1, h2) + caption
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		width, height, width, height)
	fmt.Fprintf(&b, `<text x="%d" y="15" text-anchor="middle" font-size="13" font-family="sans-serif">%s (deleted in red)</text>`,
		w1/2, html.EscapeString(srcTitle))
	fmt.Fprintf(&b, `<text x="%d" y="15" text-anchor="middle" font-size="13" font-family="sans-serif">%s (inserted in green)</text>`,
		w1+gap+w2/2, html.EscapeString(dstTitle))
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle" font-size="12" font-family="sans-serif" fill="#555555">edit distance %g (%s cost)</text>`,
		width/2, height-6, d.Result.Distance, html.EscapeString(d.Model.Name()))
	fmt.Fprintf(&b, `<g transform="translate(0,%d)">%s</g>`, caption, renderSVG(d.R1, d.status1, l1, w1, h1))
	fmt.Fprintf(&b, `<g transform="translate(%d,%d)">%s</g>`, w1+gap, caption, renderSVG(d.R2, d.status2, l2, w2, h2))
	b.WriteString(`</svg>`)
	return b.String()
}

// HTML renders the full PDiffView page: source and target runs side by
// side with colored differences, the statistics summary, the cluster
// rollup, and the step-by-step edit script.
func (d *Diff) HTML(title string) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>")
	b.WriteString(html.EscapeString(title))
	b.WriteString(`</title><style>
body { font-family: sans-serif; margin: 1.5em; }
.panes { display: flex; gap: 2em; align-items: flex-start; }
.pane { border: 1px solid #ccc; padding: 0.5em; overflow: auto; }
pre { background: #f6f6f6; padding: 0.8em; }
.legend span { margin-right: 1.2em; }
</style></head><body>`)
	fmt.Fprintf(&b, "<h1>%s</h1>", html.EscapeString(title))
	b.WriteString(`<div class="legend">
<span style="color:#cc2222">&#9632; deleted path</span>
<span style="color:#22aa44">&#9632; inserted path</span>
<span style="color:#999999">&#9632; kept</span>
<span style="color:#8888cc">&#9632; implicit loop edge</span>
</div>`)
	b.WriteString("<h2>Summary</h2><pre>" + html.EscapeString(d.Summary()) + "</pre>")
	b.WriteString(`<div class="panes">`)
	b.WriteString(`<div class="pane"><h2>Source run</h2>` + RenderSVG(d.R1, d.status1) + `</div>`)
	b.WriteString(`<div class="pane"><h2>Target run</h2>` + RenderSVG(d.R2, d.status2) + `</div>`)
	b.WriteString(`</div>`)
	b.WriteString("<h2>Composite modules</h2><pre>" + html.EscapeString(d.ClusterReport(2)) + "</pre>")
	b.WriteString("<h2>Edit script</h2>")
	b.WriteString(`<p>Click an operation to highlight its path in the run panes; the compacted view folds detected path replacements.</p><ol id="script">`)
	for _, op := range d.Script.Ops {
		fmt.Fprintf(&b, `<li class="op" data-nodes="%s"><code>%s</code></li>`,
			html.EscapeString(strings.Join(op.PathNodes, ",")),
			html.EscapeString(op.String()))
	}
	b.WriteString(`</ol>`)
	b.WriteString("<h3>With detected path replacements</h3><pre>" + html.EscapeString(RenderCompact(d.Script)) + "</pre>")
	b.WriteString(stepScript)
	b.WriteString("</body></html>")
	return b.String()
}

// stepScript is the inline step-through behaviour of the prototype:
// selecting an edit operation highlights the node instances on its
// elementary path in both run panes.
const stepScript = `<script>
(function () {
  var ops = document.querySelectorAll('#script .op');
  function clear() {
    document.querySelectorAll('.wfnode').forEach(function (n) {
      n.setAttribute('fill', '#ffffff');
      n.setAttribute('stroke-width', '1.5');
    });
    ops.forEach(function (o) { o.style.background = ''; });
  }
  ops.forEach(function (op) {
    op.style.cursor = 'pointer';
    op.addEventListener('click', function () {
      clear();
      op.style.background = '#fff3bf';
      var wanted = {};
      op.getAttribute('data-nodes').split(',').forEach(function (id) {
        // Temporary scratch instances (label~k) exist in neither pane.
        wanted[id] = true;
      });
      document.querySelectorAll('.wfnode').forEach(function (n) {
        if (wanted[n.getAttribute('data-inst')]) {
          n.setAttribute('fill', '#ffe066');
          n.setAttribute('stroke-width', '3');
        }
      });
    });
  });
})();
</script>`
