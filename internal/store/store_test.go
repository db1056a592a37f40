package store

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/wfrun"
)

func TestSaveLoadSpecAndRuns(t *testing.T) {
	s := openStore(t)
	pa, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSpec("pa", pa); err != nil {
		t.Fatal(err)
	}
	sp, err := s.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	// Cached: the same object comes back.
	sp2, err := s.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	if sp != sp2 {
		t.Fatal("LoadSpec should cache the specification object")
	}

	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"mon", "tue", "wed"} {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SaveRun("pa", name, r); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := s.ListRuns("pa")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 || runs[0] != "mon" || runs[2] != "wed" {
		t.Fatalf("runs = %v", runs)
	}
	r, err := s.LoadRun("pa", "tue")
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec != sp {
		t.Fatal("loaded run must reference the cached specification")
	}
	specs, err := s.ListSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0] != "pa" {
		t.Fatalf("specs = %v", specs)
	}
}

func TestDiffStoredRuns(t *testing.T) {
	s := openStore(t)
	pa, _ := gen.Catalog("PA")
	if err := s.SaveSpec("pa", pa); err != nil {
		t.Fatal(err)
	}
	sp, _ := s.LoadSpec("pa")
	rng := rand.New(rand.NewSource(2))
	r1, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveRun("pa", "a", r1); err != nil {
		t.Fatal(err)
	}
	r2, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveRun("pa", "b", r2); err != nil {
		t.Fatal(err)
	}
	res, err := s.Diff("pa", "a", "b", cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance < 0 {
		t.Fatal("negative distance")
	}
	same, err := s.Diff("pa", "a", "a", cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if same.Distance != 0 {
		t.Fatalf("self distance = %g", same.Distance)
	}
}

func TestSaveRunRejectsForeignSpec(t *testing.T) {
	s := openStore(t)
	pa, _ := gen.Catalog("PA")
	if err := s.SaveSpec("pa", pa); err != nil {
		t.Fatal(err)
	}
	// A run built against a *different* PA object must be rejected.
	other, _ := gen.Catalog("PA")
	r, err := wfrun.Execute(other, wfrun.FullDecider{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveRun("pa", "x", r); err == nil {
		t.Fatal("foreign-spec run must be rejected")
	}
}

func TestOverwriteProtection(t *testing.T) {
	s := openStore(t)
	pa, _ := gen.Catalog("PA")
	if err := s.SaveSpec("pa", pa); err != nil {
		t.Fatal(err)
	}
	sp, _ := s.LoadSpec("pa")
	r, err := wfrun.Execute(sp, wfrun.FullDecider{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveRun("pa", "r1", r); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSpec("pa", pa); err == nil {
		t.Fatal("overwriting a specification with runs must fail")
	}
	if err := s.DeleteRun("pa", "r1"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteRun("pa", "r1"); err == nil {
		t.Fatal("double delete must fail")
	}
}

func TestNameValidation(t *testing.T) {
	s := openStore(t)
	pa, _ := gen.Catalog("PA")
	for _, bad := range []string{"", "a/b", "..", "."} {
		if err := s.SaveSpec(bad, pa); err == nil {
			t.Fatalf("name %q must be rejected", bad)
		}
		if _, err := s.LoadSpec(bad); err == nil {
			t.Fatalf("load of %q must be rejected", bad)
		}
	}
	if _, err := s.LoadSpec("ghost"); err == nil {
		t.Fatal("unknown spec must fail")
	}
	if _, err := s.LoadRun("ghost", "r"); err == nil {
		t.Fatal("run of unknown spec must fail")
	}
}

// TestPathTraversalNames locks down the name hardening ValidateName
// provides to every boundary (CLI flags, HTTP path values): traversal
// components and separator-containing names must never be joined into
// the repository root.
func TestPathTraversalNames(t *testing.T) {
	s := openStore(t)
	pa, _ := gen.Catalog("PA")
	if err := s.SaveSpec("pa", pa); err != nil {
		t.Fatal(err)
	}
	sp, _ := s.LoadSpec("pa")
	r, err := wfrun.Execute(sp, wfrun.FullDecider{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"..", ".", "", "a/b", `a\b`, "../escape", "..\\escape",
		"runs/../../../etc", "a\x00b", ".hidden",
	}
	for _, name := range bad {
		if err := ValidateName(name); err == nil {
			t.Errorf("ValidateName(%q) accepted a traversal-capable name", name)
		}
		if _, err := s.LoadRun("pa", name); err == nil {
			t.Errorf("LoadRun run=%q must be rejected", name)
		}
		if _, err := s.LoadRun(name, "r"); err == nil {
			t.Errorf("LoadRun spec=%q must be rejected", name)
		}
		if err := s.SaveRun(name, "r", r); err == nil {
			t.Errorf("SaveRun spec=%q must be rejected", name)
		}
		if err := s.SaveRun("pa", name, r); err == nil {
			t.Errorf("SaveRun run=%q must be rejected", name)
		}
		if err := s.DeleteRun("pa", name); err == nil {
			t.Errorf("DeleteRun run=%q must be rejected", name)
		}
		if _, err := s.ListRuns(name); err == nil {
			t.Errorf("ListRuns spec=%q must be rejected", name)
		}
	}
	for _, ok := range []string{"pa", "run-1", "run_2", "Run3", "2024-07-28T12:00"} {
		if err := ValidateName(ok); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", ok, err)
		}
	}
}

// TestRunChangeHooks verifies the run-set version advances exactly
// one step on import and one on delete.
func TestRunChangeHooks(t *testing.T) {
	s := openStore(t)
	pa, _ := gen.Catalog("PA")
	if err := s.SaveSpec("pa", pa); err != nil {
		t.Fatal(err)
	}
	sp, _ := s.LoadSpec("pa")
	r, err := wfrun.Execute(sp, wfrun.FullDecider{})
	if err != nil {
		t.Fatal(err)
	}
	v0 := s.RunsVersion("pa")
	if err := s.SaveRun("pa", "x", r); err != nil {
		t.Fatal(err)
	}
	if v := s.RunsVersion("pa"); v != v0+1 {
		t.Fatalf("version after import = %d, want %d", v, v0+1)
	}
	if err := s.DeleteRun("pa", "x"); err != nil {
		t.Fatal(err)
	}
	if v := s.RunsVersion("pa"); v != v0+2 {
		t.Fatalf("version after delete = %d, want %d", v, v0+2)
	}
	if v, hashes, err := s.RunHashes("pa"); err != nil || v != v0+2 || len(hashes) != 0 {
		t.Fatalf("RunHashes = %d, %v, %v; want version %d and no runs", v, hashes, err, v0+2)
	}
}

func TestConcurrentLoads(t *testing.T) {
	s := openStore(t)
	pa, _ := gen.Catalog("PA")
	if err := s.SaveSpec("pa", pa); err != nil {
		t.Fatal(err)
	}
	// Clear the cache by reopening the store on the same backend.
	s2 := reopenStore(s)
	var wg sync.WaitGroup
	specs := make([]interface{}, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp, err := s2.LoadSpec("pa")
			if err != nil {
				t.Error(err)
				return
			}
			specs[i] = sp
		}(i)
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if specs[i] != specs[0] {
			t.Fatal("concurrent loads must converge on one specification object")
		}
	}
}

// TestOpenRepositoryKinds: the three-argument constructor opens fs and
// memory repositories, and refuses the removed object kind and any
// shard count above one.
func TestOpenRepositoryKinds(t *testing.T) {
	for _, kind := range []string{"fs", "memory"} {
		st, err := OpenRepository(t.TempDir(), kind, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if st.BackendKind() != kind {
			t.Fatalf("kind = %q, want %q", st.BackendKind(), kind)
		}
		st.Close()
	}
	if _, err := OpenRepository(t.TempDir(), "object", 1); err == nil {
		t.Fatal("object kind accepted")
	}
	if _, err := OpenRepository(t.TempDir(), "fs", 2); err == nil || !strings.Contains(err.Error(), "sharding was removed") {
		t.Fatalf("2 shards: err = %v", err)
	}
}
