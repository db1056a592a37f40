package provdiff

// Tests for the public storage surface: the backend constructors — the
// same calls an embedder makes to put the store on a non-default
// backend.

import (
	"math/rand"
	"testing"
)

// seedStorageFixture returns a catalog spec and two runs for it.
func seedStorageFixture(t *testing.T) (sp *Spec, r1, r2 *Run) {
	t.Helper()
	sp, err := Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	params := RunParams{ProbP: 0.8, ProbF: 0.5, MaxF: 3, ProbL: 0.5, MaxL: 2}
	if r1, err = RandomRun(sp, params, rng); err != nil {
		t.Fatal(err)
	}
	if r2, err = RandomRun(sp, params, rng); err != nil {
		t.Fatal(err)
	}
	return sp, r1, r2
}

// roundTrip saves a spec and two runs through st and diffs them back.
func roundTrip(t *testing.T, st *Store, sp *Spec, r1, r2 *Run) {
	t.Helper()
	if err := st.SaveSpec("pa", sp); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRun("pa", "r1", r1); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRun("pa", "r2", r2); err != nil {
		t.Fatal(err)
	}
	res, err := st.Diff("pa", "r1", "r2", Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance < 0 {
		t.Fatalf("negative distance %g", res.Distance)
	}
}

func TestStorageBackendFacade(t *testing.T) {
	sp, r1, r2 := seedStorageFixture(t)

	t.Run("fs", func(t *testing.T) {
		be, err := NewFSBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st := OpenStoreBackend(be)
		defer st.Close()
		roundTrip(t, st, sp, r1, r2)
		if st.BackendKind() != "fs" {
			t.Fatalf("kind = %q", st.BackendKind())
		}
	})

	t.Run("memory", func(t *testing.T) {
		st := OpenStoreBackend(NewMemoryBackend())
		defer st.Close()
		roundTrip(t, st, sp, r1, r2)
	})

	t.Run("by-kind", func(t *testing.T) {
		for _, kind := range []string{"fs", "memory"} {
			be, err := NewStorageBackend(kind, t.TempDir())
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if be.Kind() != kind {
				t.Fatalf("kind = %q, want %q", be.Kind(), kind)
			}
			if err := be.Close(); err != nil {
				t.Fatal(err)
			}
		}
		for _, kind := range []string{"object", "sharded", "s3"} {
			if _, err := NewStorageBackend(kind, t.TempDir()); err == nil {
				t.Fatalf("unknown kind %q accepted", kind)
			}
		}
	})
}
