package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/spec"
	"repro/internal/sptree"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// TestRunRoundTripMatchesXMLParse is the property the store rests on:
// for a run parsed from XML, encoding it to the binary format and
// decoding it back yields a run indistinguishable from the XML parse —
// same tree (exactly, not just up to ≡), same graph, same implicit
// edges, distance zero under differencing. And the frame is the only
// stored copy of a run, exported as XML on demand, so the frame must
// survive that export and a re-import byte for byte:
// EncodeRun(wfxml.DecodeRun(wfxml.EncodeRun(DecodeRun(f)))) == f. This
// must hold for the frames every write path stores — parses of
// imported XML and live-completed runs — across every catalog workflow.
func TestRunRoundTripMatchesXMLParse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eng := core.NewEngine(cost.Unit{})
	for _, name := range gen.CatalogNames {
		sp, err := gen.Catalog(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			executed, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
			if err != nil {
				t.Fatal(err)
			}
			// Canonical reference: the XML round trip (what an import
			// stores).
			var xmlBuf bytes.Buffer
			if err := wfxml.EncodeRun(&xmlBuf, executed, "r"); err != nil {
				t.Fatal(err)
			}
			ref, err := wfxml.DecodeRun(bytes.NewReader(xmlBuf.Bytes()), sp)
			if err != nil {
				t.Fatal(err)
			}
			data, err := EncodeRun(ref)
			if err != nil {
				t.Fatalf("%s/%d: encode: %v", name, i, err)
			}
			got, err := DecodeRun(data, sp)
			if err != nil {
				t.Fatalf("%s/%d: decode: %v", name, i, err)
			}
			assertSameRun(t, name, ref, got)
			if d, err := eng.Distance(ref, got); err != nil || d != 0 {
				t.Errorf("%s/%d: distance(ref, decoded) = %v, %v; want 0, nil", name, i, d, err)
			}
			assertFrameSurvivesExport(t, fmt.Sprintf("%s/%d", name, i), data, sp)

			// The frame live completion stores: the run assembled from
			// its event stream, not re-parsed.
			if i == 0 {
				lv := wfrun.NewLive(sp)
				for _, ev := range wfrun.Events(executed) {
					if err := lv.Append(ev); err != nil {
						t.Fatalf("%s: live append: %v", name, err)
					}
				}
				completed, err := lv.Complete()
				if err != nil {
					t.Fatalf("%s: live complete: %v", name, err)
				}
				live, err := EncodeRun(completed)
				if err != nil {
					t.Fatal(err)
				}
				assertFrameSurvivesExport(t, name+"/live", live, sp)
			}
		}
	}
}

// assertFrameSurvivesExport checks that a stored frame, exported as
// XML and imported again, is the same frame byte for byte.
func assertFrameSurvivesExport(t *testing.T, label string, frame []byte, sp *spec.Spec) {
	t.Helper()
	r, err := DecodeRun(frame, sp)
	if err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	var doc bytes.Buffer
	if err := wfxml.EncodeRun(&doc, r, "r"); err != nil {
		t.Fatalf("%s: export: %v", label, err)
	}
	reimported, err := wfxml.DecodeRun(&doc, sp)
	if err != nil {
		t.Fatalf("%s: re-import: %v", label, err)
	}
	again, err := EncodeRun(reimported)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, frame) {
		t.Errorf("%s: frame changed across export and re-import (%d → %d bytes)", label, len(frame), len(again))
	}
}

// TestRunRoundTripFaithful checks the codec reproduces exactly the
// tree it was given even when that tree is not the canonical form the
// XML parse would derive (fork groupings from Execute can differ).
func TestRunRoundTripFaithful(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sp, err := gen.Catalog("SAXPF")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeRun(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRun(data, sp)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRun(t, "SAXPF", r, got)
	}
}

func assertSameRun(t *testing.T, name string, want, got *wfrun.Run) {
	t.Helper()
	if got.Tree.String() != want.Tree.String() {
		t.Errorf("%s: decoded tree differs:\n%s\nvs\n%s", name, got.Tree, want.Tree)
	}
	if !sptree.Equivalent(got.Tree, want.Tree) {
		t.Errorf("%s: decoded tree not equivalent", name)
	}
	if got.Graph.String() != want.Graph.String() {
		t.Errorf("%s: decoded graph differs", name)
	}
	if len(got.ImplicitEdges) != len(want.ImplicitEdges) {
		t.Fatalf("%s: %d implicit edges, want %d", name, len(got.ImplicitEdges), len(want.ImplicitEdges))
	}
	seen := make(map[string]bool)
	for _, e := range want.ImplicitEdges {
		seen[e.String()] = true
	}
	for _, e := range got.ImplicitEdges {
		if !seen[e.String()] {
			t.Errorf("%s: unexpected implicit edge %s", name, e)
		}
	}
	// Alignment: every decoded node points at a real spec-tree node of
	// matching type.
	got.Tree.Walk(func(n *sptree.Node) bool {
		if n.Spec == nil {
			t.Errorf("%s: decoded node %s has no spec alignment", name, n.Type)
			return false
		}
		if n.Spec.Type != n.Type {
			t.Errorf("%s: decoded %s node aligned to %s spec node", name, n.Type, n.Spec.Type)
		}
		return true
	})
}

// TestDecodeRejectsCorruption flips every byte of an encoded run in
// turn and requires DecodeRun to fail cleanly (no panic, no silent
// wrong result) — the property the store's XML fallback relies on.
func TestDecodeRejectsCorruption(t *testing.T) {
	sp, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeRun(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if _, err := DecodeRun(mut, sp); err == nil {
			t.Fatalf("corruption at byte %d decoded without error", i)
		}
	}
	// Truncations likewise.
	for _, n := range []int{0, 3, headerLen - 1, headerLen, len(data) / 2, len(data) - 1} {
		if _, err := DecodeRun(data[:n], sp); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
}

func TestDecodeRejectsWrongSpec(t *testing.T) {
	pa, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := gen.Catalog("MB")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	r, err := gen.RandomRun(pa, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeRun(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRun(data, mb); err == nil {
		t.Fatal("decoding a PA snapshot against the MB specification succeeded")
	}
}

// TestRunLabelsComeFromSpec checks the fact shape IDs rest on: every
// node of a run, whether decoded from a frame or parsed from XML,
// carries the Src and Dst labels of its specification node, so a
// node's shape (which keys on the specification node) fixes every
// PathCost the deletion DP asks of its subtree.
func TestRunLabelsComeFromSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, name := range gen.CatalogNames {
		sp, err := gen.Catalog(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			executed, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
			if err != nil {
				t.Fatal(err)
			}
			var xmlBuf bytes.Buffer
			if err := wfxml.EncodeRun(&xmlBuf, executed, "r"); err != nil {
				t.Fatal(err)
			}
			parsed, err := wfxml.DecodeRun(bytes.NewReader(xmlBuf.Bytes()), sp)
			if err != nil {
				t.Fatal(err)
			}
			data, err := EncodeRun(parsed)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeRun(data, sp)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*wfrun.Run{parsed, decoded} {
				r.Tree.Walk(func(v *sptree.Node) bool {
					if v.Spec == nil || v.Src != v.Spec.Src || v.Dst != v.Spec.Dst {
						t.Fatalf("%s/%d: %s node labelled %s..%s, specification node %v", name, i, v.Type, v.Src, v.Dst, v.Spec)
					}
					return true
				})
			}
		}
	}
}
