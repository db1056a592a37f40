// Package codec is the versioned binary serialization of SP-workflow
// runs, and the form in which the store keeps every run. The XML
// format (package wfxml) is the interchange
// representation — parsed through full validation and the tree
// execution function f″ of Algorithms 2 and 5; the binary format is a
// faithful record of the *result* of that parse: the run graph, its
// implicit loop edges, and the derived annotated SP-tree with every
// node's alignment into the specification tree recorded as a preorder
// ID. Decoding therefore rebuilds a Run without re-running flow-network
// checks, SP decomposition or derivation, which is what makes a cold
// repository boot several times faster than re-parsing XML. For a run
// parsed from XML, encoding, exporting the decoded run as XML and
// re-parsing it yields the same frame byte for byte, so XML can be
// rendered from a stored frame on demand.
//
// Safety does not rest on trusting the bytes: every frame carries a
// CRC-32 checksum and a format version, and decoders bound every count
// against the frame they are reading. A frame that fails any check is
// an error; the store reports it naming the run and its ledger batch.
package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/sptree"
	"repro/internal/wfrun"
)

// Version is the current binary format version. Decoders reject frames
// carrying any other version; since stored runs exist only as frames,
// bumping it must ship with a migration of stored segments.
const Version = 1

// Frame layout: magic (4 bytes), version (1 byte), payload length
// (4 bytes LE), CRC-32 (IEEE) of the payload (4 bytes LE), payload.
const (
	magicRun    = "PDRN"
	headerLen   = 4 + 1 + 4 + 4
	maxFrameLen = 1 << 30 // defensive bound on a declared payload length
)

// frame wraps a run payload with magic, version and checksum.
func frame(payload []byte) []byte {
	out := make([]byte, headerLen+len(payload))
	copy(out, magicRun)
	out[4] = Version
	binary.LittleEndian.PutUint32(out[5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[9:], crc32.ChecksumIEEE(payload))
	copy(out[headerLen:], payload)
	return out
}

// unframe validates magic, version, length and checksum, returning the
// payload.
func unframe(data []byte) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("codec: frame truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != magicRun {
		return nil, fmt.Errorf("codec: bad magic %q, want %q", data[:4], magicRun)
	}
	if data[4] != Version {
		return nil, fmt.Errorf("codec: format version %d, want %d", data[4], Version)
	}
	n := binary.LittleEndian.Uint32(data[5:])
	if n > maxFrameLen || int(n) != len(data)-headerLen {
		return nil, fmt.Errorf("codec: payload length %d does not match frame of %d bytes", n, len(data))
	}
	payload := data[headerLen:]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(data[9:]) {
		return nil, fmt.Errorf("codec: checksum mismatch")
	}
	return payload, nil
}

// ContentHash is the canonical content address of an encoded frame:
// the SHA-256 digest of the frame bytes exactly as written, header
// included. Because the encoders are deterministic (maps are emitted
// in sorted order, trees in preorder), two frames hash equal iff they
// encode the same logical document under the same format version —
// which is what lets the store dedup re-imports and the ledger treat
// the hash as the identity of a committed run.
func ContentHash(data []byte) [sha256.Size]byte {
	return sha256.Sum256(data)
}

// FrameSize reports the total byte length of the frame starting at
// data[0] — header plus declared payload — without validating the
// checksum. It accepts run frames, the only records runs.seg holds, so
// a scanner can walk a log of concatenated frames record by record.
// An unknown magic, unknown version or truncated/oversized declared
// length is an error: the scanner cannot know where the next record
// starts.
func FrameSize(data []byte) (int, error) {
	if len(data) < headerLen {
		return 0, fmt.Errorf("codec: frame truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != magicRun {
		return 0, fmt.Errorf("codec: bad magic %q", data[:4])
	}
	if data[4] != Version {
		return 0, fmt.Errorf("codec: format version %d, want %d", data[4], Version)
	}
	n := binary.LittleEndian.Uint32(data[5:])
	if n > maxFrameLen || int(n) > len(data)-headerLen {
		return 0, fmt.Errorf("codec: declared payload length %d exceeds remaining %d bytes", n, len(data)-headerLen)
	}
	return headerLen + int(n), nil
}

// --- primitive writers/readers --------------------------------------

type writer struct{ buf []byte }

func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) intv(v int)       { w.uvarint(uint64(v)) }
func (w *writer) byteVal(b byte)   { w.buf = append(w.buf, b) }
func (w *writer) str(s string)     { w.intv(len(s)); w.buf = append(w.buf, s...) }

type reader struct {
	buf []byte
	pos int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("codec: truncated varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

// intv reads a count/index bounded by the remaining payload — any
// legitimate count is at most one byte of payload per element, so this
// rejects corrupt lengths before they can size an allocation.
func (r *reader) intv() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.buf)) {
		return 0, fmt.Errorf("codec: count %d exceeds payload size %d", v, len(r.buf))
	}
	return int(v), nil
}

func (r *reader) byteVal() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, fmt.Errorf("codec: truncated payload at offset %d", r.pos)
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) str() (string, error) {
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

func (r *reader) done() error {
	if r.pos != len(r.buf) {
		return fmt.Errorf("codec: %d trailing bytes after payload", len(r.buf)-r.pos)
	}
	return nil
}

// --- graph ----------------------------------------------------------

// encodeGraph writes nodes (id, label) in insertion order and edges as
// node-index pairs in insertion order. Replaying AddEdge in that order
// reproduces parallel-edge keys exactly, so edges can be referenced by
// their position in this list.
func encodeGraph(w *writer, g *graph.Graph) map[graph.Edge]int {
	nodes := g.Nodes()
	nodeIdx := make(map[graph.NodeID]int, len(nodes))
	w.intv(len(nodes))
	for i, n := range nodes {
		nodeIdx[n] = i
		w.str(string(n))
		w.str(g.Label(n))
	}
	edges := g.Edges()
	edgeIdx := make(map[graph.Edge]int, len(edges))
	w.intv(len(edges))
	for i, e := range edges {
		edgeIdx[e] = i
		w.intv(nodeIdx[e.From])
		w.intv(nodeIdx[e.To])
	}
	return edgeIdx
}

// decodeGraph replays an encoded graph, returning it with the edge
// list in encoding order.
func decodeGraph(r *reader) (*graph.Graph, []graph.Edge, error) {
	g := graph.New()
	nn, err := r.intv()
	if err != nil {
		return nil, nil, err
	}
	nodes := make([]graph.NodeID, nn)
	for i := 0; i < nn; i++ {
		id, err := r.str()
		if err != nil {
			return nil, nil, err
		}
		label, err := r.str()
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

// --- run ------------------------------------------------------------

// EncodeRun serializes a run: its graph, the implicit loop edges, and
// the derived annotated SP-tree with each node's specification
// alignment stored as the preorder ID of h(v) in the specification
// tree. The spec-tree node count is recorded so a snapshot decoded
// against a structurally different specification fails fast instead of
// mis-aligning.
func EncodeRun(r *wfrun.Run) ([]byte, error) {
	if r == nil || r.Tree == nil || r.Spec == nil || r.Spec.Tree == nil {
		return nil, fmt.Errorf("codec: run has no derived tree")
	}
	w := &writer{}
	edgeIdx := encodeGraph(w, r.Graph)
	w.intv(len(r.ImplicitEdges))
	for _, e := range r.ImplicitEdges {
		i, ok := edgeIdx[e]
		if !ok {
			return nil, fmt.Errorf("codec: implicit edge %s is not a graph edge", e)
		}
		w.intv(i)
	}
	w.intv(r.Spec.Tree.CountNodes())
	if err := encodeTree(w, r.Tree, edgeIdx); err != nil {
		return nil, err
	}
	return frame(w.buf), nil
}

// encodeTree writes the run tree in preorder: type, spec preorder ID,
// then for Q leaves the run-edge index, for internal nodes the child
// count followed by the children.
func encodeTree(w *writer, n *sptree.Node, edgeIdx map[graph.Edge]int) error {
	if n.Spec == nil {
		return fmt.Errorf("codec: run-tree %s node has no specification alignment", n.Type)
	}
	w.byteVal(byte(n.Type))
	w.intv(n.Spec.ID)
	if n.Type == sptree.Q {
		i, ok := edgeIdx[n.Edge]
		if !ok {
			return fmt.Errorf("codec: tree leaf edge %s is not a graph edge", n.Edge)
		}
		w.intv(i)
		return nil
	}
	w.intv(len(n.Children))
	for _, c := range n.Children {
		if err := encodeTree(w, c, edgeIdx); err != nil {
			return err
		}
	}
	return nil
}

// DecodeRun parses a run frame against its specification, rebuilding
// the graph and the annotated tree directly — no flow-network checks,
// no SP decomposition, no derivation. The checksum plus the structural
// bounds below (every spec ID in range and of the expected node type,
// every edge index valid) keep a corrupt or mismatched frame from
// producing a malformed Run; the store reports any error it returns
// as damage to the stored run.
func DecodeRun(data []byte, sp *spec.Spec) (*wfrun.Run, error) {
	if sp == nil || sp.Tree == nil {
		return nil, fmt.Errorf("codec: nil specification")
	}
	payload, err := unframe(data)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: payload}
	g, edges, err := decodeGraph(r)
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
	// Specification-tree nodes indexed by preorder ID (Finalize
	// guarantees ID == preorder position).
	specNodes := flattenSpecTree(sp.Tree)
	wantSpecNodes, err := r.intv()
	if err != nil {
		return nil, err
	}
	if wantSpecNodes != len(specNodes) {
		return nil, fmt.Errorf("codec: snapshot expects a %d-node specification tree, have %d", wantSpecNodes, len(specNodes))
	}
	d := &treeDecoder{r: r, specNodes: specNodes, edges: edges}
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

func flattenSpecTree(root *sptree.Node) []*sptree.Node {
	out := make([]*sptree.Node, 0, 64)
	root.Walk(func(n *sptree.Node) bool {
		out = append(out, n)
		return true
	})
	return out
}

type treeDecoder struct {
	r         *reader
	specNodes []*sptree.Node
	edges     []graph.Edge
	nodes     int
}

// maxTreeDepth bounds recursion against adversarial nesting; real run
// trees are no deeper than the specification tree times the loop
// nesting, far below this.
const maxTreeDepth = 10_000

func (d *treeDecoder) decode(depth int) (*sptree.Node, error) {
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
	// A run node's type always equals its specification node's type
	// (f″ maps Q↔Q, S↔S, …); checking it here rejects snapshots
	// decoded against the wrong specification.
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
