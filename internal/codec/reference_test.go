package codec

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/sptree"
	"repro/internal/wfrun"
)

// referenceDecodeRun is the decoder DecodeRun's index-based build
// replaced, kept as its oracle: the graph replayed through AddNode and
// AddEdge by node ID, the specification tree flattened on every call,
// children appended one at a time and the tree finalized afterwards.
func referenceDecodeRun(data []byte, sp *spec.Spec) (*wfrun.Run, error) {
	if sp == nil || sp.Tree == nil {
		return nil, fmt.Errorf("codec: nil specification")
	}
	payload, err := unframe(data)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: payload}
	g, edges, err := refDecodeGraph(r)
	if err != nil {
		return nil, err
	}
	ni, err := r.intv()
	if err != nil {
		return nil, err
	}
	implicit := make([]graph.Edge, ni)
	for i := range implicit {
		ei, err := r.intv()
		if err != nil {
			return nil, err
		}
		if ei >= len(edges) {
			return nil, fmt.Errorf("codec: implicit edge index %d of %d", ei, len(edges))
		}
		implicit[i] = edges[ei]
	}
	var specNodes []*sptree.Node
	sp.Tree.Walk(func(n *sptree.Node) bool {
		specNodes = append(specNodes, n)
		return true
	})
	wantSpecNodes, err := r.intv()
	if err != nil {
		return nil, err
	}
	if wantSpecNodes != len(specNodes) {
		return nil, fmt.Errorf("codec: snapshot expects a %d-node specification tree, have %d", wantSpecNodes, len(specNodes))
	}
	d := &refTreeDecoder{r: r, specNodes: specNodes, edges: edges}
	root, err := d.decode(0)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	root.Finalize()
	return &wfrun.Run{Spec: sp, Tree: root, Graph: g, ImplicitEdges: implicit}, nil
}

func refStr(r *reader) (string, error) {
	n, err := r.intv()
	if err != nil {
		return "", err
	}
	if r.pos+n > len(r.buf) {
		return "", fmt.Errorf("codec: string of %d bytes overruns payload", n)
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s, nil
}

func refDecodeGraph(r *reader) (*graph.Graph, []graph.Edge, error) {
	g := graph.New()
	nn, err := r.intv()
	if err != nil {
		return nil, nil, err
	}
	nodes := make([]graph.NodeID, nn)
	for i := 0; i < nn; i++ {
		id, err := refStr(r)
		if err != nil {
			return nil, nil, err
		}
		label, err := refStr(r)
		if err != nil {
			return nil, nil, err
		}
		if err := g.AddNode(graph.NodeID(id), label); err != nil {
			return nil, nil, fmt.Errorf("codec: %w", err)
		}
		nodes[i] = graph.NodeID(id)
	}
	ne, err := r.intv()
	if err != nil {
		return nil, nil, err
	}
	edges := make([]graph.Edge, ne)
	for i := 0; i < ne; i++ {
		fi, err := r.intv()
		if err != nil {
			return nil, nil, err
		}
		ti, err := r.intv()
		if err != nil {
			return nil, nil, err
		}
		if fi >= nn || ti >= nn {
			return nil, nil, fmt.Errorf("codec: edge %d references node %d/%d of %d", i, fi, ti, nn)
		}
		e, err := g.AddEdge(nodes[fi], nodes[ti])
		if err != nil {
			return nil, nil, fmt.Errorf("codec: %w", err)
		}
		edges[i] = e
	}
	return g, edges, nil
}

type refTreeDecoder struct {
	r         *reader
	specNodes []*sptree.Node
	edges     []graph.Edge
	nodes     int
}

func (d *refTreeDecoder) decode(depth int) (*sptree.Node, error) {
	if depth > maxTreeDepth {
		return nil, fmt.Errorf("codec: tree deeper than %d", maxTreeDepth)
	}
	d.nodes++
	if d.nodes > len(d.r.buf)+1 {
		return nil, fmt.Errorf("codec: tree node count exceeds payload bound")
	}
	tb, err := d.r.byteVal()
	if err != nil {
		return nil, err
	}
	typ := sptree.Type(tb)
	if typ > sptree.L {
		return nil, fmt.Errorf("codec: unknown tree node type %d", tb)
	}
	specID, err := d.r.intv()
	if err != nil {
		return nil, err
	}
	if specID >= len(d.specNodes) {
		return nil, fmt.Errorf("codec: spec node ID %d of %d", specID, len(d.specNodes))
	}
	tg := d.specNodes[specID]
	if tg.Type != typ {
		return nil, fmt.Errorf("codec: run %s node aligned to specification %s node", typ, tg.Type)
	}
	n := &sptree.Node{Type: typ, Spec: tg, Src: tg.Src, Dst: tg.Dst}
	if typ == sptree.Q {
		ei, err := d.r.intv()
		if err != nil {
			return nil, err
		}
		if ei >= len(d.edges) {
			return nil, fmt.Errorf("codec: leaf edge index %d of %d", ei, len(d.edges))
		}
		n.Edge = d.edges[ei]
		return n, nil
	}
	nc, err := d.r.intv()
	if err != nil {
		return nil, err
	}
	if nc == 0 {
		return nil, fmt.Errorf("codec: internal %s node with no children", typ)
	}
	for i := 0; i < nc; i++ {
		c, err := d.decode(depth + 1)
		if err != nil {
			return nil, err
		}
		n.Adopt(c)
	}
	return n, nil
}
