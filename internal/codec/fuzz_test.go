package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/spec"
	"repro/internal/sptree"
	"repro/internal/wfrun"
)

// fuzzSpecs are the specifications FuzzDecodeRunFrame decodes against;
// its first argument picks one.
var fuzzSpecs = []string{"PA", "EMBOSS", "MB", "PGAQ"}

// seedFrame encodes a generated run of a catalog specification.
func seedFrame(t testing.TB, sp *spec.Spec, rng *rand.Rand) []byte {
	t.Helper()
	r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeRun(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// handPayload writes a payload node by node: nodes as (id, label)
// pairs, edges as frame node-index pairs, no implicit edges, and a
// tree that is one Q leaf on edge 0 aligned to the first Q node of the
// specification tree.
func handPayload(sp *spec.Spec, nodes [][2]string, edges [][2]int) []byte {
	w := &writer{}
	w.intv(len(nodes))
	for _, n := range nodes {
		w.str(n[0])
		w.str(n[1])
	}
	w.intv(len(edges))
	for _, e := range edges {
		w.intv(e[0])
		w.intv(e[1])
	}
	w.intv(0)
	w.intv(sp.Tree.CountNodes())
	q := sp.Tree.Leaves()[0]
	w.byteVal(byte(sptree.Q))
	w.intv(q.ID)
	w.intv(0)
	return w.buf
}

// FuzzDecodeRunFrame holds DecodeRun to the decoder it replaced: for
// every input, read both as a whole frame and as a payload framed with
// a valid checksum, the two accept the same frames with the same error
// texts and build the same run.
func FuzzDecodeRunFrame(f *testing.F) {
	specs := make([]*spec.Spec, len(fuzzSpecs))
	for i, name := range fuzzSpecs {
		sp, err := gen.Catalog(name)
		if err != nil {
			f.Fatal(err)
		}
		specs[i] = sp
		rng := rand.New(rand.NewSource(int64(17 + i)))
		for k := 0; k < 2; k++ {
			data := seedFrame(f, sp, rng)
			f.Add(uint8(i), data)
			f.Add(uint8(i), data[headerLen:])
		}
	}
	// TestDecodeRejectsCorruption's cases.
	pa := seedFrame(f, specs[0], rand.New(rand.NewSource(3)))
	for i := range pa {
		mut := append([]byte(nil), pa...)
		mut[i] ^= 0x5a
		f.Add(uint8(0), mut)
	}
	for _, n := range []int{0, 3, headerLen - 1, headerLen, len(pa) / 2, len(pa) - 1} {
		f.Add(uint8(0), pa[:n])
	}
	// Duplicate node ids: with the same label the frame is accepted and
	// both copies name one node; with another label it is rejected.
	l0, l1 := specs[0].G.LabelAt(0), specs[0].G.LabelAt(1)
	f.Add(uint8(0), handPayload(specs[0], [][2]string{{"a", l0}, {"b", l1}, {"a", l0}}, [][2]int{{2, 1}, {0, 1}}))
	f.Add(uint8(0), handPayload(specs[0], [][2]string{{"a", l0}, {"b", l1}, {"a", l1}}, [][2]int{{2, 1}}))

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		sp := specs[int(which)%len(specs)]
		compareDecoders(t, data, sp)
		compareDecoders(t, frame(data), sp)
	})
}

// compareDecoders decodes data with DecodeRun and the reference and
// fails unless both reject it with the same text or both build the
// same run.
func compareDecoders(t *testing.T, data []byte, sp *spec.Spec) {
	t.Helper()
	got, err := DecodeRun(data, sp)
	want, refErr := referenceDecodeRun(data, sp)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("DecodeRun error %v, reference %v\ninput: %q", err, refErr, data)
	}
	if err != nil {
		return
	}
	assertIdenticalRun(t, want, got)
	gotFrame, gotErr := EncodeRun(got)
	wantFrame, wantErr := EncodeRun(want)
	if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(gotFrame, wantFrame) {
		t.Fatalf("re-encoded frames differ: %v, %v\ninput: %q", gotErr, wantErr, data)
	}
}

// assertIdenticalRun requires two runs to be equal node for node: the
// graph's ids, labels and edges (keys included) in order, the implicit
// edges, and the tree's types, alignments, edges, child order, IDs and
// parent pointers.
func assertIdenticalRun(t *testing.T, want, got *wfrun.Run) {
	t.Helper()
	wg, gg := want.Graph, got.Graph
	if wg.NumNodes() != gg.NumNodes() || wg.NumEdges() != gg.NumEdges() {
		t.Fatalf("graph has %d nodes, %d edges; want %d, %d", gg.NumNodes(), gg.NumEdges(), wg.NumNodes(), wg.NumEdges())
	}
	gotIDs, wantIDs := gg.Nodes(), wg.Nodes()
	for v := range wantIDs {
		if gotIDs[v] != wantIDs[v] || gg.LabelAt(v) != wg.LabelAt(v) {
			t.Fatalf("node %d is %s[%s], want %s[%s]", v, gotIDs[v], gg.LabelAt(v), wantIDs[v], wg.LabelAt(v))
		}
		if gg.NodeIndex(wantIDs[v]) != v {
			t.Fatalf("NodeIndex(%s) = %d, want %d", wantIDs[v], gg.NodeIndex(wantIDs[v]), v)
		}
	}
	for i := 0; i < wg.NumEdges(); i++ {
		gu, gv := gg.Ends(i)
		wu, wv := wg.Ends(i)
		if gg.EdgeAt(i) != wg.EdgeAt(i) || gu != wu || gv != wv {
			t.Fatalf("edge %d is %s (%d→%d), want %s (%d→%d)", i, gg.EdgeAt(i), gu, gv, wg.EdgeAt(i), wu, wv)
		}
	}
	if len(got.ImplicitEdges) != len(want.ImplicitEdges) {
		t.Fatalf("%d implicit edges, want %d", len(got.ImplicitEdges), len(want.ImplicitEdges))
	}
	for i, e := range want.ImplicitEdges {
		if got.ImplicitEdges[i] != e {
			t.Fatalf("implicit edge %d is %s, want %s", i, got.ImplicitEdges[i], e)
		}
	}
	if got.Spec != want.Spec {
		t.Fatal("decoded run points at another specification")
	}
	var walk func(g, w *sptree.Node)
	walk = func(g, w *sptree.Node) {
		if g.Type != w.Type || g.Spec != w.Spec || g.Edge != w.Edge || g.Src != w.Src || g.Dst != w.Dst || g.ID != w.ID || len(g.Children) != len(w.Children) {
			t.Fatalf("tree node %d (%s %s, %d children) differs from the reference's (%s %s, %d children)",
				w.ID, g.Type, g.Edge, len(g.Children), w.Type, w.Edge, len(w.Children))
		}
		for i, c := range g.Children {
			if c.Parent != g {
				t.Fatalf("tree node %d: child %d has another parent", w.ID, i)
			}
			walk(c, w.Children[i])
		}
	}
	if got.Tree.Parent != nil {
		t.Fatal("decoded root has a parent")
	}
	walk(got.Tree, want.Tree)
}

// TestDecodeDuplicateNodeID: a frame listing a node id twice with one
// label is accepted, and edges through either copy end at one node.
func TestDecodeDuplicateNodeID(t *testing.T) {
	sp, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	l0, l1 := sp.G.LabelAt(0), sp.G.LabelAt(1)
	data := frame(handPayload(sp, [][2]string{{"a", l0}, {"b", l1}, {"a", l0}}, [][2]int{{2, 1}, {0, 1}}))
	r, err := DecodeRun(data, sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Graph.NumNodes() != 2 {
		t.Fatalf("decoded %d nodes, want 2", r.Graph.NumNodes())
	}
	for i, key := range []int{0, 1} {
		if e := r.Graph.EdgeAt(i); e.From != "a" || e.To != "b" || e.Key != key {
			t.Fatalf("edge %d = %s, want (a,b) key %d", i, e, key)
		}
	}
	compareDecoders(t, data, sp)
}

// TestDecodedRunOwnsItsBytes: a decoded run keeps nothing of the
// buffer it was decoded from, so a caller may reuse that buffer.
func TestDecodedRunOwnsItsBytes(t *testing.T) {
	for _, name := range fuzzSpecs {
		sp, err := gen.Catalog(name)
		if err != nil {
			t.Fatal(err)
		}
		data := seedFrame(t, sp, rand.New(rand.NewSource(9)))
		buf := append([]byte(nil), data...)
		r, err := DecodeRun(buf, sp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		again, err := EncodeRun(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%s: run re-encodes differently once its buffer is overwritten", name)
		}
	}
}
