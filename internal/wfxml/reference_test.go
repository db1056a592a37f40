package wfxml

import (
	"encoding/xml"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/wfrun"
)

// referenceDecodeRun is the decoder DecodeRun's token stream replaced,
// kept as its oracle: reflection-based xml.Unmarshal into xmlRun, then
// the run graph built from the struct, every node before any edge.
func referenceDecodeRun(r io.Reader, sp *spec.Spec) (*wfrun.Run, error) {
	var x xmlRun
	if err := xml.NewDecoder(r).Decode(&x); err != nil {
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
