// Package wfxml serializes SP-workflow specifications and runs as XML,
// mirroring the storage format of the PDiffView prototype
// (Section VIII: "specifications and runs are stored as XML files").
// Runs carry explicit specification-edge references so multigraph
// specifications round-trip unambiguously.
package wfxml

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/sptree"
	"repro/internal/wfrun"
)

type xmlEdge struct {
	From string `xml:"from,attr"`
	To   string `xml:"to,attr"`
	Key  int    `xml:"key,attr,omitempty"`
}

type xmlModule struct {
	ID    string `xml:"id,attr"`
	Label string `xml:"label,attr"`
}

type xmlSubgraph struct {
	Edges []xmlEdge `xml:"edge"`
}

type xmlSpec struct {
	XMLName xml.Name      `xml:"specification"`
	Name    string        `xml:"name,attr,omitempty"`
	Modules []xmlModule   `xml:"module"`
	Links   []xmlEdge     `xml:"link"`
	Forks   []xmlSubgraph `xml:"fork"`
	Loops   []xmlSubgraph `xml:"loop"`
}

type xmlRunNode struct {
	ID    string `xml:"id,attr"`
	Label string `xml:"label,attr"`
}

type xmlRunEdge struct {
	From     string `xml:"from,attr"`
	To       string `xml:"to,attr"`
	SpecFrom string `xml:"specFrom,attr,omitempty"`
	SpecTo   string `xml:"specTo,attr,omitempty"`
	SpecKey  int    `xml:"specKey,attr,omitempty"`
	Implicit bool   `xml:"implicit,attr,omitempty"`
}

type xmlRun struct {
	XMLName xml.Name     `xml:"run"`
	Name    string       `xml:"name,attr,omitempty"`
	Nodes   []xmlRunNode `xml:"node"`
	Edges   []xmlRunEdge `xml:"edge"`
}

// EncodeSpec writes sp as XML.
func EncodeSpec(w io.Writer, sp *spec.Spec, name string) error {
	x := xmlSpec{Name: name}
	for _, n := range sp.G.Nodes() {
		x.Modules = append(x.Modules, xmlModule{ID: string(n), Label: sp.G.Label(n)})
	}
	for _, e := range sp.G.Edges() {
		x.Links = append(x.Links, xmlEdge{From: string(e.From), To: string(e.To), Key: e.Key})
	}
	for _, h := range sp.Forks {
		x.Forks = append(x.Forks, toSubgraph(h))
	}
	for _, h := range sp.Loops {
		x.Loops = append(x.Loops, toSubgraph(h))
	}
	return encode(w, x)
}

func toSubgraph(h spec.EdgeSet) xmlSubgraph {
	var sg xmlSubgraph
	for _, e := range h {
		sg.Edges = append(sg.Edges, xmlEdge{From: string(e.From), To: string(e.To), Key: e.Key})
	}
	return sg
}

func encode(w io.Writer, v interface{}) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("wfxml: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// DecodeSpec parses a specification from XML and validates it through
// spec.New.
func DecodeSpec(r io.Reader) (*spec.Spec, error) {
	var x xmlSpec
	if err := xml.NewDecoder(r).Decode(&x); err != nil {
		return nil, fmt.Errorf("wfxml: %w", err)
	}
	g := graph.New()
	for _, m := range x.Modules {
		if err := g.AddNode(graph.NodeID(m.ID), m.Label); err != nil {
			return nil, fmt.Errorf("wfxml: %w", err)
		}
	}
	// Group parallel links so keys are assigned in document order.
	for _, l := range x.Links {
		e, err := g.AddEdge(graph.NodeID(l.From), graph.NodeID(l.To))
		if err != nil {
			return nil, fmt.Errorf("wfxml: %w", err)
		}
		if e.Key != l.Key {
			return nil, fmt.Errorf("wfxml: link (%s,%s) key %d out of order (got %d); list parallel links in key order", l.From, l.To, l.Key, e.Key)
		}
	}
	toSet := func(sg xmlSubgraph) spec.EdgeSet {
		var out spec.EdgeSet
		for _, e := range sg.Edges {
			out = append(out, graph.Edge{From: graph.NodeID(e.From), To: graph.NodeID(e.To), Key: e.Key})
		}
		return out
	}
	var forks, loops []spec.EdgeSet
	for _, sg := range x.Forks {
		forks = append(forks, toSet(sg))
	}
	for _, sg := range x.Loops {
		loops = append(loops, toSet(sg))
	}
	return spec.New(g, forks, loops)
}

// EncodeRun writes a run as XML, including the specification edge
// reference of every non-implicit edge.
func EncodeRun(w io.Writer, r *wfrun.Run, name string) error {
	x := xmlRun{Name: name}
	for v, n := range r.Graph.Nodes() {
		x.Nodes = append(x.Nodes, xmlRunNode{ID: string(n), Label: r.Graph.LabelAt(v)})
	}
	refs := r.EdgeRefs()
	implicit := make(map[graph.Edge]bool, len(r.ImplicitEdges))
	for _, e := range r.ImplicitEdges {
		implicit[e] = true
	}
	for i, e := range r.Graph.Edges() {
		re := xmlRunEdge{From: string(e.From), To: string(e.To)}
		if implicit[e] {
			re.Implicit = true
		} else if ref := refs[i]; ref.From != "" {
			re.SpecFrom = string(ref.From)
			re.SpecTo = string(ref.To)
			re.SpecKey = ref.Key
		}
		x.Edges = append(x.Edges, re)
	}
	// Sort by (From, To, Key): parallel edges are in key order in the
	// graph, and the sort is stable.
	sort.SliceStable(x.Edges, func(i, j int) bool {
		a, b := x.Edges[i], x.Edges[j]
		return a.From < b.From || a.From == b.From && a.To < b.To
	})
	return encode(w, x)
}

// DecodeRun parses a run from XML and derives its annotated SP-tree
// against sp (Algorithms 2 and 5).
func DecodeRun(r io.Reader, sp *spec.Spec) (*wfrun.Run, error) {
	var x xmlRun
	if err := decodeRunTokens(xml.NewDecoder(r), &x); err != nil {
		return nil, fmt.Errorf("wfxml: %w", err)
	}
	g := graph.New()
	for _, n := range x.Nodes {
		if err := g.AddNode(graph.NodeID(n.ID), n.Label); err != nil {
			return nil, fmt.Errorf("wfxml: %w", err)
		}
	}
	refs := make([]graph.Edge, len(x.Edges))
	for i, re := range x.Edges {
		if _, err := g.AddEdge(graph.NodeID(re.From), graph.NodeID(re.To)); err != nil {
			return nil, fmt.Errorf("wfxml: %w", err)
		}
		if !re.Implicit && re.SpecFrom != "" {
			refs[i] = graph.Edge{From: graph.NodeID(re.SpecFrom), To: graph.NodeID(re.SpecTo), Key: re.SpecKey}
		}
	}
	return wfrun.Derive(sp, g, refs)
}

// decodeRunTokens reads a run document into x from its token stream,
// by the rules xml.Unmarshal applies to xmlRun: the first element must
// be <run>; its <node> and <edge> children are read by attribute local
// name, the last one winning; any other element, and anything inside a
// node or edge, is skipped; nothing after </run> is read.
func decodeRunTokens(d *xml.Decoder, x *xmlRun) error {
	var start xml.StartElement
	for start.Name.Local == "" {
		tok, err := d.Token()
		if err != nil {
			return err
		}
		start, _ = tok.(xml.StartElement)
	}
	if start.Name.Local != "run" {
		return xml.UnmarshalError("expected element type <run> but have <" + start.Name.Local + ">")
	}
	for {
		tok, err := d.Token()
		if err != nil {
			return err
		}
		if _, end := tok.(xml.EndElement); end {
			return nil // </run>: Token pairs every end with its start
		}
		t, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch t.Name.Local {
		case "node":
			var n xmlRunNode
			for _, a := range t.Attr {
				switch a.Name.Local {
				case "id":
					n.ID = a.Value
				case "label":
					n.Label = a.Value
				}
			}
			x.Nodes = append(x.Nodes, n)
		case "edge":
			var e xmlRunEdge
			for _, a := range t.Attr {
				switch a.Name.Local {
				case "from":
					e.From = a.Value
				case "to":
					e.To = a.Value
				case "specFrom":
					e.SpecFrom = a.Value
				case "specTo":
					e.SpecTo = a.Value
				case "specKey":
					err = attr(a.Value, &e.SpecKey, func(v string) (int, error) {
						k, err := strconv.ParseInt(v, 10, strconv.IntSize)
						return int(k), err
					})
				case "implicit":
					err = attr(a.Value, &e.Implicit, strconv.ParseBool)
				}
				if err != nil {
					return err
				}
			}
			x.Edges = append(x.Edges, e)
		}
		if err := d.Skip(); err != nil {
			return err
		}
	}
}

// attr sets *dst from an attribute value as Unmarshal sets an int or
// bool field: empty means zero, anything else parses with surrounding
// space trimmed.
func attr[T any](v string, dst *T, parse func(string) (T, error)) error {
	var zero T
	if *dst = zero; v == "" {
		return nil
	}
	val, err := parse(strings.TrimSpace(v))
	if err == nil {
		*dst = val
	}
	return err
}

// ValidateRunTree re-exported check (round-trip convenience for
// callers that already hold a tree).
func ValidateRunTree(r *wfrun.Run) error {
	return sptree.ValidateRunTree(r.Tree, r.Spec.Tree)
}
