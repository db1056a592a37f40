package store

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
)

// seedLineage builds a repository with a three-version lineage
// demo → demo-v2 → demo-v3 (each step one or two random mutations) and
// a couple of runs under the first two versions.
func seedLineage(t *testing.T, dir string) *Store {
	t.Helper()
	st := openTestStore(t, dir)
	sp, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSpec("demo", sp); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	v1, err := st.LoadSpec("demo")
	if err != nil {
		t.Fatal(err)
	}
	muts, err := gen.Mutate(v1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSpecVersion("demo", "demo-v2", muts[len(muts)-1].Spec); err != nil {
		t.Fatal(err)
	}
	v2, err := st.LoadSpec("demo-v2")
	if err != nil {
		t.Fatal(err)
	}
	muts, err = gen.Mutate(v2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSpecVersion("demo-v2", "demo-v3", muts[0].Spec); err != nil {
		t.Fatal(err)
	}
	params := gen.RunParams{ProbP: 0.85, ProbF: 0.6, MaxF: 3, ProbL: 0.6, MaxL: 3}
	for i := 0; i < 2; i++ {
		r, err := gen.RandomRun(v1, params, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SaveRun("demo", runName(i), r); err != nil {
			t.Fatal(err)
		}
		r2, err := gen.RandomRun(v2, params, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SaveRun("demo-v2", runName(i), r2); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func runName(i int) string { return string(rune('a'+i)) + "run" }

func TestLineageChainAndMappings(t *testing.T) {
	st := seedLineage(t, t.TempDir())
	chain, err := st.Lineage("demo-v3")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 || chain[0] != "demo-v3" || chain[1] != "demo-v2" || chain[2] != "demo" {
		t.Fatalf("lineage = %v, want [demo-v3 demo-v2 demo]", chain)
	}
	if parent, err := st.Parent("demo"); err != nil || parent != "" {
		t.Fatalf("Parent(demo) = %q, %v; want root", parent, err)
	}

	// One-step mapping: linked, persisted.
	m, linked, err := st.SpecMapping("demo", "demo-v2")
	if err != nil {
		t.Fatal(err)
	}
	if !linked {
		t.Error("demo → demo-v2 not reported as lineage-linked")
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
	// Two-step mapping composes; still linked.
	m13, linked, err := st.SpecMapping("demo", "demo-v3")
	if err != nil {
		t.Fatal(err)
	}
	if !linked {
		t.Error("demo → demo-v3 not reported as lineage-linked")
	}
	if err := m13.Validate(); err != nil {
		t.Error(err)
	}
	// Reverse direction: inverted, linked.
	rev, linked, err := st.SpecMapping("demo-v3", "demo")
	if err != nil {
		t.Fatal(err)
	}
	if !linked {
		t.Error("demo-v3 → demo not reported as lineage-linked")
	}
	if len(rev.Pairs) != len(m13.Pairs) {
		t.Errorf("inverted mapping has %d pairs, forward %d", len(rev.Pairs), len(m13.Pairs))
	}
	// Identity.
	ident, linked, err := st.SpecMapping("demo", "demo")
	if err != nil || !linked {
		t.Fatalf("identity mapping: %v, linked=%v", err, linked)
	}
	if ident.Cost != 0 {
		t.Errorf("identity mapping cost %g", ident.Cost)
	}
}

func TestCrossDiffEndToEnd(t *testing.T) {
	st := seedLineage(t, t.TempDir())
	res, linked, err := st.CrossDiff("demo", runName(0), "demo-v2", runName(0), cost.Length{})
	if err != nil {
		t.Fatal(err)
	}
	if !linked {
		t.Error("cross diff over lineage-linked specs not reported as linked")
	}
	if math.IsNaN(res.Distance) || math.IsInf(res.Distance, 0) || res.Distance < 0 {
		t.Fatalf("cross distance %g is not finite non-negative", res.Distance)
	}
	if res.Distance < res.EngineDistance {
		t.Errorf("total %g below engine distance %g", res.Distance, res.EngineDistance)
	}
	if err := res.Projected.Validate(); err != nil {
		t.Errorf("projected run invalid: %v", err)
	}
	// Same-spec cross diff degenerates to the plain diff.
	plain, err := st.Diff("demo", runName(0), runName(1), cost.Length{})
	if err != nil {
		t.Fatal(err)
	}
	same, _, err := st.CrossDiff("demo", runName(0), "demo", runName(1), cost.Length{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(same.Distance-plain.Distance) > 1e-9 {
		t.Errorf("same-spec cross distance %g != plain %g", same.Distance, plain.Distance)
	}
}

// TestMappingSurvivesRestart is the acceptance round-trip: a fresh
// Store over the same directory recomputes the lineage step's mapping
// from the stored specifications, pair for pair the mapping computed
// at PutSpecVersion time, and gives identical cross-diff answers.
func TestMappingSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := seedLineage(t, dir)
	before, _, err := st.CrossDiff("demo", runName(0), "demo-v2", runName(1), cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	mBefore, _, err := st.SpecMapping("demo", "demo-v2")
	if err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh store over the same persisted state.
	st2 := openTestStore(t, dir)
	mAfter, linked, err := st2.SpecMapping("demo", "demo-v2")
	if err != nil {
		t.Fatal(err)
	}
	if !linked {
		t.Error("lineage link lost across restart")
	}
	if mAfter.Cost != mBefore.Cost || len(mAfter.Pairs) != len(mBefore.Pairs) {
		t.Fatalf("mapping drifted across restart: cost %g/%d pairs vs %g/%d",
			mAfter.Cost, len(mAfter.Pairs), mBefore.Cost, len(mBefore.Pairs))
	}
	for i, p := range mBefore.Pairs {
		if q := mAfter.Pairs[i]; q[0].ID != p[0].ID || q[1].ID != p[1].ID {
			t.Fatalf("pair %d drifted across restart: %d→%d vs %d→%d", i, q[0].ID, q[1].ID, p[0].ID, p[1].ID)
		}
	}
	after, _, err := st2.CrossDiff("demo", runName(0), "demo-v2", runName(1), cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after.Distance-before.Distance) > 1e-9 {
		t.Errorf("cross distance drifted across restart: %g vs %g", after.Distance, before.Distance)
	}
}

func TestLineageRejectsBadNames(t *testing.T) {
	st := seedLineage(t, t.TempDir())
	if _, err := st.Lineage("../etc"); err == nil {
		t.Error("traversal name accepted")
	}
	if err := st.PutSpecVersion("demo", "demo", nil); err == nil {
		t.Error("self-parent accepted")
	}
	if _, _, err := st.SpecMapping("demo", "no-such-spec"); err == nil {
		t.Error("unknown spec accepted")
	}
}

// TestSaveSpecDropsStaleMappings: overwriting a (run-less) spec must
// evict cached mappings that point into the replaced spec object, or
// every later CrossDiff would fail with a spec-identity mismatch.
func TestSaveSpecDropsStaleMappings(t *testing.T) {
	st := openStore(t)
	pa, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSpec("a", pa); err != nil {
		t.Fatal(err)
	}
	mb, err := gen.Catalog("MB")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSpec("b", mb); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.SpecMapping("a", "b"); err != nil {
		t.Fatal(err)
	}
	// Overwrite spec "a" (no runs yet, so this is allowed).
	em, err := gen.Catalog("EMBOSS")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSpec("a", em); err != nil {
		t.Fatal(err)
	}
	m, _, err := st.SpecMapping("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := st.LoadSpec("a")
	if err != nil {
		t.Fatal(err)
	}
	if m.A != cur {
		t.Fatal("SpecMapping served a mapping into the replaced spec object")
	}
	// And cross-diffing with runs built on the current object works.
	rng := rand.New(rand.NewSource(2))
	r, err := gen.RandomRun(cur, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRun("a", "r0", r); err != nil {
		t.Fatal(err)
	}
	spb, err := st.LoadSpec("b")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := gen.RandomRun(spb, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRun("b", "r0", rb); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.CrossDiff("a", "r0", "b", "r0", cost.Unit{}); err != nil {
		t.Fatalf("cross diff after spec overwrite: %v", err)
	}
}

// TestPutSpecVersionRejectsCycles: closing a lineage loop would leave
// every walk over the involved specs failing forever, so the link must
// be refused at put time.
func TestPutSpecVersionRejectsCycles(t *testing.T) {
	st := seedLineage(t, t.TempDir())
	// demo-v3 descends from demo; linking demo under demo-v3 (or any
	// descendant) must be refused.
	sp, err := st.LoadSpec("demo")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSpecVersion("demo-v3", "demo", sp); err == nil {
		t.Fatal("direct lineage cycle accepted")
	}
	if err := st.PutSpecVersion("demo-v2", "demo", sp); err == nil {
		t.Fatal("two-step lineage cycle accepted")
	}
	// Lineage must still work afterwards.
	if _, err := st.Lineage("demo-v3"); err != nil {
		t.Fatalf("lineage broken after rejected cycle: %v", err)
	}
}
