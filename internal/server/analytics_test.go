package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/wfxml"
)

// encodeRun serializes a fresh random run of the stored "pa" spec.
func encodeRun(tb testing.TB, st *store.Store, seed int64) []byte {
	tb.Helper()
	sp, err := st.LoadSpec("pa")
	if err != nil {
		tb.Fatal(err)
	}
	r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wfxml.EncodeRun(&buf, r, "x"); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestClusterEndpoint(t *testing.T) {
	srv, _ := seedServer(t, 6, Options{CacheSize: 16})
	var p clusterPayload
	if rec := do(t, srv, "GET", "/v1/specs/pa/cluster?k=2&seed=7", nil, &p); rec.Code != 200 {
		t.Fatalf("cluster = %d %q", rec.Code, rec.Body.String())
	}
	if p.Spec != "pa" || p.K != 2 || len(p.Clusters) != 2 || p.Cached {
		t.Fatalf("payload: %+v", p)
	}
	seen := map[string]bool{}
	for _, c := range p.Clusters {
		if c.Medoid == "" || len(c.Runs) == 0 {
			t.Fatalf("empty cluster: %+v", p)
		}
		found := false
		for _, r := range c.Runs {
			seen[r] = true
			if r == c.Medoid {
				found = true
			}
		}
		if !found {
			t.Fatalf("medoid %s outside its cluster %v", c.Medoid, c.Runs)
		}
	}
	if len(seen) != 6 {
		t.Fatalf("clusters cover %d of 6 runs: %+v", len(seen), p)
	}

	// Deterministic: same request, same partition — and served from
	// cache the second time.
	var p2 clusterPayload
	do(t, srv, "GET", "/v1/specs/pa/cluster?k=2&seed=7", nil, &p2)
	if !p2.Cached {
		t.Fatal("second cluster request should be cached")
	}
	p2.Cached = false
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("nondeterministic clustering:\n%+v\n%+v", p, p2)
	}

	// Distinct params are distinct cache entries.
	var p3 clusterPayload
	do(t, srv, "GET", "/v1/specs/pa/cluster?k=3&seed=7", nil, &p3)
	if p3.Cached || p3.K != 3 {
		t.Fatalf("k=3: %+v", p3)
	}

	// Errors: bad k values, bad spec, tiny cohort.
	for _, target := range []string{
		"/v1/specs/pa/cluster?k=0",
		"/v1/specs/pa/cluster?k=99",
		"/v1/specs/pa/cluster?k=abc",
		"/v1/specs/pa/cluster?seed=x",
		"/v1/specs/pa/cluster?cost=bogus",
	} {
		if rec := do(t, srv, "GET", target, nil, nil); rec.Code != 400 {
			t.Errorf("%s = %d, want 400", target, rec.Code)
		}
	}
	if rec := do(t, srv, "GET", "/v1/specs/zz/cluster", nil, nil); rec.Code != 404 {
		t.Fatalf("unknown spec = %d, want 404", rec.Code)
	}
	tiny, _ := seedServer(t, 1, Options{CacheSize: 8})
	if rec := do(t, tiny, "GET", "/v1/specs/pa/cluster?k=1", nil, nil); rec.Code != 400 {
		t.Fatalf("1-run cohort = %d, want 400", rec.Code)
	}
}

// TestClusterIdenticalRuns: over three copies of one run every
// distance ties at 0 and the second cluster comes out empty. The
// answer must still be a 200 with a decodable body and a finite
// silhouette, not a 200 with an empty body.
func TestClusterIdenticalRuns(t *testing.T) {
	srv, st := seedServer(t, 1, Options{CacheSize: 8})
	r0, err := st.LoadRun("pa", "r0")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"r1", "r2"} {
		if err := st.SaveRun("pa", name, r0); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ { // the second answer is the cached one
		var p clusterPayload
		rec := do(t, srv, "GET", "/v1/specs/pa/cluster?k=2", nil, &p)
		if rec.Code != 200 || rec.Body.Len() == 0 {
			t.Fatalf("cluster over identical runs = %d %q", rec.Code, rec.Body.String())
		}
		if math.IsNaN(p.Silhouette) || math.IsInf(p.Silhouette, 0) || p.Silhouette != 0 {
			t.Fatalf("silhouette over identical runs = %g, want 0", p.Silhouette)
		}
		if p.K != 2 || p.Cost_ != 0 {
			t.Fatalf("payload: %+v", p)
		}
	}
}

// TestWriteJSONUnencodable: a value JSON cannot carry answers the 500
// envelope, never a 200 with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	srv, _ := seedServer(t, 0, Options{CacheSize: 8})
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, map[string]float64{"silhouette": math.NaN()})
	var env errorEnvelope
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %q", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "internal" {
		t.Fatalf("body %q is not the internal envelope: %v", rec.Body.String(), err)
	}
}

func TestOutliersEndpoint(t *testing.T) {
	srv, _ := seedServer(t, 5, Options{CacheSize: 16})
	var p outliersPayload
	if rec := do(t, srv, "GET", "/v1/specs/pa/outliers?k=2", nil, &p); rec.Code != 200 {
		t.Fatalf("outliers = %d %q", rec.Code, rec.Body.String())
	}
	if len(p.Outliers) != 5 || p.Neighbors != 2 {
		t.Fatalf("payload: %+v", p)
	}
	for i := 1; i < len(p.Outliers); i++ {
		if p.Outliers[i].Score > p.Outliers[i-1].Score {
			t.Fatalf("outliers unsorted: %+v", p.Outliers)
		}
	}
	var p2 outliersPayload
	do(t, srv, "GET", "/v1/specs/pa/outliers?k=2", nil, &p2)
	if !p2.Cached {
		t.Fatal("second outliers request should be cached")
	}
	if rec := do(t, srv, "GET", "/v1/specs/pa/outliers?k=zz", nil, nil); rec.Code != 400 {
		t.Fatalf("bad k = %d", rec.Code)
	}
}

func TestNearestEndpoint(t *testing.T) {
	srv, _ := seedServer(t, 5, Options{CacheSize: 16})
	var p nearestPayload
	if rec := do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=3", nil, &p); rec.Code != 200 {
		t.Fatalf("nearest = %d %q", rec.Code, rec.Body.String())
	}
	if p.Run != "r0" || len(p.Neighbors) != 3 {
		t.Fatalf("payload: %+v", p)
	}
	for i, n := range p.Neighbors {
		if n.Run == "r0" {
			t.Fatalf("run is its own neighbor: %+v", p)
		}
		if i > 0 && n.Distance < p.Neighbors[i-1].Distance {
			t.Fatalf("neighbors unsorted: %+v", p.Neighbors)
		}
	}
	// k beyond the cohort clamps.
	var all nearestPayload
	do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=99", nil, &all)
	if len(all.Neighbors) != 4 {
		t.Fatalf("clamped k: %+v", all)
	}
	// The cached flag round-trips.
	var again nearestPayload
	do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=3", nil, &again)
	if !again.Cached {
		t.Fatal("second nearest request should be cached")
	}
	// Unknown run 404s; missing and invalid names 400.
	if rec := do(t, srv, "GET", "/v1/specs/pa/nearest?run=zz", nil, nil); rec.Code != 404 {
		t.Fatalf("unknown run = %d, want 404", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/specs/pa/nearest", nil, nil); rec.Code != 400 {
		t.Fatalf("missing run = %d, want 400", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/specs/pa/nearest?run=%2e%2e", nil, nil); rec.Code != 400 {
		t.Fatalf("traversal run = %d, want 400", rec.Code)
	}
}

// TestCohortMatrixIncrementalOverHTTP: the server's cohort matrix is
// built once, then maintained with O(n) diffs per import, and
// invalidated payloads are never served stale.
func TestCohortMatrixIncrementalOverHTTP(t *testing.T) {
	srv, st := seedServer(t, 4, Options{CacheSize: 16})

	var before nearestPayload
	do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=9", nil, &before)
	if len(before.Neighbors) != 3 {
		t.Fatalf("before: %+v", before)
	}
	e := srv.cohorts.entry("pa", cost.Unit{})
	if e == nil {
		t.Fatal("cohort entry missing")
	}
	base := e.hc.DiffCalls()
	if base != 6 { // 4*3/2 pairs
		t.Fatalf("initial build = %d diffs, want 6", base)
	}

	// Import a 5th run: exactly 4 more diffs, and both the payload
	// cache and the matrix reflect it.
	if rec := do(t, srv, "POST", "/v1/specs/pa/runs/fresh", encodeRun(t, st, 1234), nil); rec.Code != 201 {
		t.Fatalf("import = %d", rec.Code)
	}
	var after nearestPayload
	do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=9", nil, &after)
	if after.Cached {
		t.Fatal("nearest served stale from cache after import")
	}
	if len(after.Neighbors) != 4 {
		t.Fatalf("after import: %+v", after)
	}
	if got := e.hc.DiffCalls() - base; got != 4 {
		t.Fatalf("incremental import performed %d diffs, want exactly 4", got)
	}

	// Delete it again: zero additional diffs.
	mid := e.hc.DiffCalls()
	if rec := do(t, srv, "DELETE", "/v1/specs/pa/runs/fresh", nil, nil); rec.Code != 200 {
		t.Fatalf("delete = %d", rec.Code)
	}
	var final nearestPayload
	do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=9", nil, &final)
	if len(final.Neighbors) != 3 {
		t.Fatalf("after delete: %+v", final)
	}
	for _, n := range final.Neighbors {
		if n.Run == "fresh" {
			t.Fatalf("deleted run still served: %+v", final)
		}
	}
	if got := e.hc.DiffCalls() - mid; got != 0 {
		t.Fatalf("delete performed %d diffs, want 0", got)
	}

	// Distinct cost models build distinct matrices.
	do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=2&cost=length", nil, nil)
	if n := srv.cohorts.count(); n != 2 {
		t.Fatalf("cohort matrices = %d, want 2", n)
	}
}
