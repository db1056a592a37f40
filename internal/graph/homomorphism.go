package graph

import "fmt"

// Homomorphism maps run nodes to specification nodes.
type Homomorphism map[NodeID]NodeID

// FindHomomorphism computes the label-preserving homomorphism h from a
// run graph R to a specification graph G required by the validity
// definition of Section III-B:
//
//  1. Label(v) = Label(h(v)) for every run node v,
//  2. h(s(R)) = s(G) and h(t(R)) = t(G),
//  3. (h(u), h(v)) ∈ E(G) for every run edge (u, v).
//
// Because specification labels are unique, h is fully determined by
// labels; this function computes it and verifies all three conditions.
// R must additionally be acyclic (runs unfold loops).
func FindHomomorphism(run, spec *Graph) (Homomorphism, error) {
	if !spec.UniqueLabels() {
		return nil, fmt.Errorf("graph: specification labels are not unique")
	}
	if !run.IsAcyclic() {
		return nil, fmt.Errorf("graph: run graph has a cycle")
	}
	sR, tR, err := run.CheckFlowNetwork()
	if err != nil {
		return nil, fmt.Errorf("graph: run is not a flow network: %w", err)
	}
	sG, tG, err := spec.CheckFlowNetwork()
	if err != nil {
		return nil, fmt.Errorf("graph: specification is not a flow network: %w", err)
	}
	byLabel := make(map[string]NodeID, spec.NumNodes())
	for _, n := range spec.Nodes() {
		byLabel[spec.Label(n)] = n
	}
	h := make(Homomorphism, run.NumNodes())
	for i, v := range run.ids {
		g, ok := byLabel[run.labels[i]]
		if !ok {
			return nil, fmt.Errorf("graph: run node %s has label %q absent from specification", v, run.labels[i])
		}
		h[v] = g
	}
	if h[sR] != sG {
		return nil, fmt.Errorf("graph: run source %s does not map to specification source %s", sR, sG)
	}
	if h[tR] != tG {
		return nil, fmt.Errorf("graph: run sink %s does not map to specification sink %s", tR, tG)
	}
	specHasEdge := make(map[[2]NodeID]bool, spec.NumEdges())
	for _, e := range spec.Edges() {
		specHasEdge[[2]NodeID{e.From, e.To}] = true
	}
	for _, e := range run.Edges() {
		if !specHasEdge[[2]NodeID{h[e.From], h[e.To]}] {
			return nil, fmt.Errorf("graph: run edge %s has no image (%s,%s) in specification",
				e, h[e.From], h[e.To])
		}
	}
	return h, nil
}

// ElementaryPath reports whether the node sequence p = v0, v1, ..., vk
// is an elementary path in g per Definition 3.4: every internal node
// has exactly one incoming and one outgoing edge, the start has at
// least two outgoing edges, and the end has at least two incoming
// edges. Paths must have at least one edge.
func ElementaryPath(g *Graph, p []NodeID) error {
	if len(p) < 2 {
		return fmt.Errorf("graph: elementary path needs at least one edge")
	}
	for i := 0; i+1 < len(p); i++ {
		if !hasAnyEdge(g, p[i], p[i+1]) {
			return fmt.Errorf("graph: missing edge (%s,%s)", p[i], p[i+1])
		}
	}
	for i := 1; i+1 < len(p); i++ {
		if g.InDegree(p[i]) != 1 || g.OutDegree(p[i]) != 1 {
			return fmt.Errorf("graph: internal node %s has degree (in=%d,out=%d), want (1,1)",
				p[i], g.InDegree(p[i]), g.OutDegree(p[i]))
		}
	}
	if g.OutDegree(p[0]) < 2 {
		return fmt.Errorf("graph: path start %s has out-degree %d, want >= 2", p[0], g.OutDegree(p[0]))
	}
	if g.InDegree(p[len(p)-1]) < 2 {
		return fmt.Errorf("graph: path end %s has in-degree %d, want >= 2", p[len(p)-1], g.InDegree(p[len(p)-1]))
	}
	return nil
}

func hasAnyEdge(g *Graph, from, to NodeID) bool {
	for _, e := range g.Out(from) {
		if e.To == to {
			return true
		}
	}
	return false
}
