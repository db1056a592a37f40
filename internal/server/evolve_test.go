package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/store"
)

// seedEvolveServer extends the pa repository with a lineage-linked
// version "pa-v2" (two mutations) carrying runs s0..s{n-1}.
func seedEvolveServer(tb testing.TB, n int, opts Options) (*Server, *store.Store) {
	tb.Helper()
	srv, st := seedServer(tb, n, opts)
	v1, err := st.LoadSpec("pa")
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	muts, err := gen.Mutate(v1, 2, rng)
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.PutSpecVersion("pa", "pa-v2", muts[len(muts)-1].Spec); err != nil {
		tb.Fatal(err)
	}
	v2, err := st.LoadSpec("pa-v2")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r, err := gen.RandomRun(v2, gen.DefaultRunParams(), rng)
		if err != nil {
			tb.Fatal(err)
		}
		if err := st.SaveRun("pa-v2", fmt.Sprintf("s%d", i), r); err != nil {
			tb.Fatal(err)
		}
	}
	return srv, st
}

func TestEvolveEndpoint(t *testing.T) {
	srv, _ := seedEvolveServer(t, 2, Options{CacheSize: 16})
	var p evolvePayload
	rec := do(t, srv, http.MethodGet, "/v1/specs/pa/evolve/pa-v2", nil, &p)
	if rec.Code != http.StatusOK {
		t.Fatalf("evolve: %d %s", rec.Code, rec.Body.String())
	}
	if !p.Linked {
		t.Error("pa → pa-v2 not reported lineage-linked")
	}
	if p.Cost <= 0 {
		t.Errorf("mapping cost %g, want > 0", p.Cost)
	}
	if p.MappedModules == 0 || p.MappedModules != len(p.Modules) {
		t.Errorf("module alignment inconsistent: %d mapped, %d listed", p.MappedModules, len(p.Modules))
	}
	if p.InsertedModules < 1 {
		t.Errorf("two mutations inserted %d modules, want >= 1", p.InsertedModules)
	}
	if p.Cached {
		t.Error("first evolve answer claims cached")
	}
	// Second hit is served from the cache.
	do(t, srv, http.MethodGet, "/v1/specs/pa/evolve/pa-v2", nil, &p)
	if !p.Cached {
		t.Error("second evolve answer not cached")
	}
	// Identity pair: zero cost.
	var ident evolvePayload
	do(t, srv, http.MethodGet, "/v1/specs/pa/evolve/pa", nil, &ident)
	if ident.Cost != 0 || !ident.Linked {
		t.Errorf("self-evolve: cost %g linked %v", ident.Cost, ident.Linked)
	}
	// Unknown spec: 404.
	rec = do(t, srv, http.MethodGet, "/v1/specs/pa/evolve/nope", nil, nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown spec: %d, want 404", rec.Code)
	}
	// Traversal probe: 400.
	rec = do(t, srv, http.MethodGet, "/v1/specs/pa/evolve/%2e%2e", nil, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("traversal probe: %d, want 400", rec.Code)
	}
}

func TestEvolveSVG(t *testing.T) {
	srv, _ := seedEvolveServer(t, 1, Options{CacheSize: 16})
	rec := do(t, srv, http.MethodGet, "/v1/specs/pa/evolve/pa-v2/svg", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("evolve svg: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	if !strings.HasPrefix(body, "<svg") || !strings.Contains(body, "spec evolution cost") {
		t.Errorf("svg body malformed: %.120s", body)
	}
	// Both panes render: deleted red or kept gray on the left, inserted
	// green somewhere for the grown version.
	if !strings.Contains(body, "#22aa44") {
		t.Error("svg shows no inserted modules for a grown version")
	}
}

func TestCrossVersionDiffEndpoint(t *testing.T) {
	srv, _ := seedEvolveServer(t, 2, Options{CacheSize: 16})
	var p xdiffPayload
	rec := do(t, srv, http.MethodGet, "/v1/specs/pa/diff/r0/s0?across=pa-v2&cost=length", nil, &p)
	if rec.Code != http.StatusOK {
		t.Fatalf("cross diff: %d %s", rec.Code, rec.Body.String())
	}
	if p.SpecA != "pa" || p.SpecB != "pa-v2" {
		t.Errorf("payload specs %q/%q", p.SpecA, p.SpecB)
	}
	if p.Distance < 0 || p.Distance < p.EngineDistance {
		t.Errorf("distances inconsistent: total %g engine %g", p.Distance, p.EngineDistance)
	}
	if p.MappingCost <= 0 {
		t.Errorf("mapping cost %g, want > 0", p.MappingCost)
	}
	if p.ProjectedEdges <= 0 {
		t.Errorf("projected run has %d edges", p.ProjectedEdges)
	}
	if p.Cached {
		t.Error("first cross diff claims cached")
	}
	do(t, srv, http.MethodGet, "/v1/specs/pa/diff/r0/s0?across=pa-v2&cost=length", nil, &p)
	if !p.Cached {
		t.Error("second cross diff not cached")
	}
	// Unlinked pair: 400 with a helpful message.
	rec = do(t, srv, http.MethodGet, "/v1/specs/pa/diff/r0/r1?across=pa", nil, nil)
	if rec.Code != http.StatusOK {
		// Same spec is trivially linked (identity); only a genuinely
		// unlinked pair must 400 — build one.
		t.Fatalf("identity across: %d %s", rec.Code, rec.Body.String())
	}
	rec = do(t, srv, http.MethodGet, "/v1/specs/pa/diff/r0/s0?across=..", nil, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("traversal across: %d, want 400", rec.Code)
	}
	rec = do(t, srv, http.MethodGet, "/v1/specs/pa/diff/r0/zzz?across=pa-v2", nil, nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown cross run: %d, want 404", rec.Code)
	}
}

func TestCrossVersionDiffUnlinked400(t *testing.T) {
	srv, st := seedEvolveServer(t, 1, Options{CacheSize: 16})
	// An unrelated spec with no lineage record.
	em, err := gen.Catalog("EMBOSS")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSpec("emboss", em); err != nil {
		t.Fatal(err)
	}
	sp, err := st.LoadSpec("emboss")
	if err != nil {
		t.Fatal(err)
	}
	r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRun("emboss", "e0", r); err != nil {
		t.Fatal(err)
	}
	rec := do(t, srv, http.MethodGet, "/v1/specs/pa/diff/r0/e0?across=emboss", nil, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unlinked cross diff: %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "lineage") {
		t.Errorf("unlinked error does not mention lineage: %s", rec.Body.String())
	}
}

// TestCrossDiffInvalidation: re-importing the target-version run must
// drop the cached cross payload (it is keyed under the source spec).
func TestCrossDiffInvalidation(t *testing.T) {
	srv, st := seedEvolveServer(t, 2, Options{CacheSize: 16})
	var p xdiffPayload
	do(t, srv, http.MethodGet, "/v1/specs/pa/diff/r0/s0?across=pa-v2", nil, &p)
	do(t, srv, http.MethodGet, "/v1/specs/pa/diff/r0/s0?across=pa-v2", nil, &p)
	if !p.Cached {
		t.Fatal("cross payload not cached")
	}
	// Overwrite s0 in pa-v2 with a fresh run.
	v2, err := st.LoadSpec("pa-v2")
	if err != nil {
		t.Fatal(err)
	}
	r, err := gen.RandomRun(v2, gen.DefaultRunParams(), rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRun("pa-v2", "s0", r); err != nil {
		t.Fatal(err)
	}
	do(t, srv, http.MethodGet, "/v1/specs/pa/diff/r0/s0?across=pa-v2", nil, &p)
	if p.Cached {
		t.Error("cross payload served stale after target run re-import")
	}
}

// TestEvolveConcurrent exercises the evolve and cross-diff paths from
// many goroutines (run under -race in CI): mapping caches, engine
// pools and the result LRU must tolerate concurrent readers.
func TestEvolveConcurrent(t *testing.T) {
	srv, _ := seedEvolveServer(t, 2, Options{CacheSize: 32})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				switch (g + i) % 3 {
				case 0:
					rec := do(t, srv, http.MethodGet, "/v1/specs/pa/evolve/pa-v2", nil, nil)
					if rec.Code != http.StatusOK {
						t.Errorf("evolve: %d", rec.Code)
					}
				case 1:
					rec := do(t, srv, http.MethodGet, fmt.Sprintf("/v1/specs/pa/diff/r%d/s%d?across=pa-v2", i%2, (g+i)%2), nil, nil)
					if rec.Code != http.StatusOK {
						t.Errorf("cross diff: %d", rec.Code)
					}
				default:
					rec := do(t, srv, http.MethodGet, "/v1/specs/pa/evolve/pa-v2/svg", nil, nil)
					if rec.Code != http.StatusOK {
						t.Errorf("evolve svg: %d", rec.Code)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
