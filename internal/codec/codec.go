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
// A decode allocates only what the run keeps: one string per node ID,
// exact-size tables for the graph (graph.Build, which keeps no map
// from IDs to nodes), one node per tree node and one exact-size child
// slice per internal node. Node labels are the specification's own
// strings, and the specification's tree is indexed once, by spec.New.
// The working memory of a decode (an ID map, the frame-to-node index
// table, the open nodes' children) is pooled, and the run shares no
// byte with the frame it came from.
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
	"sync"

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

// str reads a length-prefixed string as a slice of the payload; a
// caller that keeps it must copy it.
func (r *reader) str() ([]byte, error) {
	n, err := r.intv()
	if err != nil {
		return nil, err
	}
	if r.pos+n > len(r.buf) {
		return nil, fmt.Errorf("codec: string of %d bytes overruns payload", n)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *reader) done() error {
	if r.pos != len(r.buf) {
		return fmt.Errorf("codec: %d trailing bytes after payload", len(r.buf)-r.pos)
	}
	return nil
}

// --- graph ----------------------------------------------------------

// encodeGraph writes nodes (id, label) in insertion order and edges as
// node-index pairs in insertion order. Rebuilding the graph from these
// indices reproduces parallel-edge keys exactly, so edges can be
// referenced by their position in this list.
func encodeGraph(w *writer, g *graph.Graph) map[graph.Edge]int {
	w.intv(g.NumNodes())
	for v, n := range g.Nodes() {
		w.str(string(n))
		w.str(g.LabelAt(v))
	}
	edges := g.Edges()
	edgeIdx := make(map[graph.Edge]int, len(edges))
	w.intv(len(edges))
	for i, e := range edges {
		edgeIdx[e] = i
		u, v := g.Ends(i)
		w.intv(u)
		w.intv(v)
	}
	return edgeIdx
}

// scratch is the working memory of one decode, pooled so that a decode
// allocates only what the run keeps.
type scratch struct {
	seen   map[string]int32 // node id → graph node index
	nodeOf []int32          // frame node index → graph node index
	stack  []*sptree.Node   // decoded children of the open tree nodes
}

var scratchPool = sync.Pool{New: func() any { return &scratch{seen: make(map[string]int32)} }}

// maxPooledNodes bounds the id map a pooled scratch keeps: clearing a
// map costs its peak size, so one outsized frame must not tax every
// later decode.
const maxPooledNodes = 1 << 12

func (sc *scratch) release() {
	if len(sc.seen) > maxPooledNodes {
		sc.seen = make(map[string]int32)
	} else {
		clear(sc.seen)
	}
	clear(sc.stack) // what a failed decode left
	sc.nodeOf, sc.stack = sc.nodeOf[:0], sc.stack[:0]
	scratchPool.Put(sc)
}

// decodeGraph rebuilds an encoded graph by node index. A node id
// listed twice names one node, as repeated AddNode calls would, and
// the errors are AddNode's; labels are the specification's strings.
func decodeGraph(r *reader, sp *spec.Spec, sc *scratch) (*graph.Graph, error) {
	nn, err := r.intv()
	if err != nil {
		return nil, err
	}
	ids := make([]graph.NodeID, 0, nn)
	labels := make([]string, 0, nn)
	for i := 0; i < nn; i++ {
		id, err := r.str()
		if err != nil {
			return nil, err
		}
		label, err := r.str()
		if err != nil {
			return nil, err
		}
		if len(id) == 0 {
			return nil, fmt.Errorf("codec: graph: empty node id")
		}
		if v, ok := sc.seen[string(id)]; ok {
			if labels[v] != string(label) {
				return nil, fmt.Errorf("codec: graph: node %s already exists with label %q (got %q)", id, labels[v], label)
			}
			sc.nodeOf = append(sc.nodeOf, v)
			continue
		}
		v := int32(len(ids))
		ids = append(ids, graph.NodeID(id))
		labels = append(labels, sp.InternLabel(label))
		sc.seen[string(ids[v])] = v
		sc.nodeOf = append(sc.nodeOf, v)
	}
	ne, err := r.intv()
	if err != nil {
		return nil, err
	}
	ends := make([][2]int32, ne)
	for i := range ends {
		fi, err := r.intv()
		if err != nil {
			return nil, err
		}
		ti, err := r.intv()
		if err != nil {
			return nil, err
		}
		if fi >= nn || ti >= nn {
			return nil, fmt.Errorf("codec: edge %d references node %d/%d of %d", i, fi, ti, nn)
		}
		ends[i] = [2]int32{sc.nodeOf[fi], sc.nodeOf[ti]}
	}
	return graph.Build(ids, labels, ends), nil
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
	w.intv(len(r.Spec.TreeNodes()))
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
// as damage to the stored run. The run keeps nothing of data, so the
// caller may reuse it.
func DecodeRun(data []byte, sp *spec.Spec) (*wfrun.Run, error) {
	if sp == nil || sp.Tree == nil {
		return nil, fmt.Errorf("codec: nil specification")
	}
	payload, err := unframe(data)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: payload}
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	g, err := decodeGraph(r, sp, sc)
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
		if ei >= g.NumEdges() {
			return nil, fmt.Errorf("codec: implicit edge index %d of %d", ei, g.NumEdges())
		}
		implicit[i] = g.EdgeAt(ei)
	}
	specNodes := sp.TreeNodes()
	wantSpecNodes, err := r.intv()
	if err != nil {
		return nil, err
	}
	if wantSpecNodes != len(specNodes) {
		return nil, fmt.Errorf("codec: snapshot expects a %d-node specification tree, have %d", wantSpecNodes, len(specNodes))
	}
	d := &treeDecoder{r: r, specNodes: specNodes, g: g, sc: sc}
	root, err := d.decode(0)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &wfrun.Run{Spec: sp, Tree: root, Graph: g, ImplicitEdges: implicit}, nil
}

type treeDecoder struct {
	r         *reader
	specNodes []*sptree.Node
	g         *graph.Graph
	sc        *scratch
	nodes     int
}

// maxTreeDepth bounds recursion against adversarial nesting; real run
// trees are no deeper than the specification tree times the loop
// nesting, far below this.
const maxTreeDepth = 10_000

// decode reads the subtree at the reader's position. Nodes are numbered
// in the order they are read, which is preorder, and a node's children
// collect on the scratch stack until the last is read, then move to a
// slice of exactly their number.
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
	n := &sptree.Node{Type: typ, Spec: tg, Src: tg.Src, Dst: tg.Dst, ID: d.nodes - 1}
	if typ == sptree.Q {
		ei, err := d.r.intv()
		if err != nil {
			return nil, err
		}
		if ei >= d.g.NumEdges() {
			return nil, fmt.Errorf("codec: leaf edge index %d of %d", ei, d.g.NumEdges())
		}
		n.Edge = d.g.EdgeAt(ei)
		return n, nil
	}
	nc, err := d.r.intv()
	if err != nil {
		return nil, err
	}
	if nc == 0 {
		return nil, fmt.Errorf("codec: internal %s node with no children", typ)
	}
	base := len(d.sc.stack)
	for i := 0; i < nc; i++ {
		c, err := d.decode(depth + 1)
		if err != nil {
			return nil, err
		}
		c.Parent = n
		d.sc.stack = append(d.sc.stack, c)
	}
	n.Children = make([]*sptree.Node, nc)
	copy(n.Children, d.sc.stack[base:])
	clear(d.sc.stack[base:])
	d.sc.stack = d.sc.stack[:base]
	return n, nil
}
