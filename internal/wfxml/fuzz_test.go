package wfxml

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
)

// FuzzParseWorkflowXML: DecodeSpec must be total on arbitrary bytes —
// reject with an error or accept, never panic — and every accepted
// specification must survive an encode/decode round-trip with its
// structure intact (the store trusts this whenever it re-parses its
// own files).
func FuzzParseWorkflowXML(f *testing.F) {
	// Seed with real encodings of catalog workflows plus hand-written
	// edge cases; the checked-in corpus under testdata/fuzz extends
	// these with crash-shaped inputs.
	for _, name := range []string{"PA", "EMBOSS"} {
		sp, err := gen.Catalog(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeSpec(&buf, sp, name); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`<specification><module id="s" label="S"/><module id="t" label="T"/><link from="s" to="t"/></specification>`))
	f.Add([]byte(`<specification><module id="s" label="S"/><module id="t" label="T"/><link from="s" to="t"/><link from="s" to="t" key="1"/><fork><edge from="s" to="t"/></fork></specification>`))
	f.Add([]byte(`<specification/>`))
	f.Add([]byte(`not xml at all`))
	f.Add([]byte(`<specification><link from="a" to="b"/></specification>`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine
		}
		// Accepted: the spec must re-serialize and re-parse to the
		// same structure.
		var buf bytes.Buffer
		if err := EncodeSpec(&buf, sp, "fuzz"); err != nil {
			t.Fatalf("accepted spec failed to encode: %v\ninput: %q", err, data)
		}
		sp2, err := DecodeSpec(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round-trip re-decode failed: %v\nencoded: %s", err, buf.String())
		}
		if sp.Stats() != sp2.Stats() {
			t.Fatalf("round-trip changed structure: %+v -> %+v", sp.Stats(), sp2.Stats())
		}
		if sp.Tree.Signature() != sp2.Tree.Signature() {
			t.Fatalf("round-trip changed the SP-tree:\n%s\nvs\n%s", sp.Tree, sp2.Tree)
		}
	})
}

// FuzzParseRunXML: DecodeRun against a fixed specification must be
// total too, must agree with the Unmarshal-based reference decoder on
// every input (the same acceptance, the same error text, and the same
// snapshot frame for an accepted run), and accepted runs must
// round-trip through EncodeRun.
func FuzzParseRunXML(f *testing.F) {
	sp, err := gen.Catalog("PA")
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`<run><node id="s" label="S"/><node id="t" label="T"/><edge from="s" to="t"/></run>`))
	f.Add([]byte(`<run/>`))
	f.Add([]byte(`garbage`))
	// Generated documents, whole and with the damage a decoder must
	// treat exactly as Unmarshal does.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeRun(&buf, r, "seed"); err != nil {
			f.Fatal(err)
		}
		doc := buf.String()
		f.Add([]byte(doc))
		f.Add([]byte(doc[:len(doc)/2]))
		f.Add([]byte(strings.Replace(doc, "<node ", `<meta><edge from="x" to="y"/></meta><node color="red" `, 1)))
		f.Add([]byte(strings.Replace(doc, `specKey="`, `specKey=" x`, 1)))
		f.Add([]byte(strings.Replace(doc, "<edge ", `<edge implicit="1" `, 1)))
		f.Add([]byte(strings.Replace(doc, "</run>", "</run><trailing", 1)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRun(bytes.NewReader(data), sp)
		ref, refErr := referenceDecodeRun(bytes.NewReader(data), sp)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("DecodeRun error %v, reference %v\ninput: %q", err, refErr, data)
		}
		if err != nil {
			return
		}
		frame, err := codec.EncodeRun(r)
		if err != nil {
			t.Fatalf("accepted run failed to frame: %v", err)
		}
		refFrame, err := codec.EncodeRun(ref)
		if err != nil {
			t.Fatalf("reference run failed to frame: %v", err)
		}
		if !bytes.Equal(frame, refFrame) {
			t.Fatalf("frame differs from the reference decoder's\ninput: %q", data)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("DecodeRun accepted an invalid run: %v\ninput: %q", err, data)
		}
		var buf bytes.Buffer
		if err := EncodeRun(&buf, r, "fuzz"); err != nil {
			t.Fatalf("accepted run failed to encode: %v", err)
		}
		r2, err := DecodeRun(bytes.NewReader(buf.Bytes()), sp)
		if err != nil {
			t.Fatalf("round-trip re-decode failed: %v\nencoded: %s", err, buf.String())
		}
		if r.NumNodes() != r2.NumNodes() || r.NumEdges() != r2.NumEdges() {
			t.Fatalf("round-trip changed run size: %d/%d -> %d/%d",
				r.NumNodes(), r.NumEdges(), r2.NumNodes(), r2.NumEdges())
		}
	})
}
