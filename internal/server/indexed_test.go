package server

import (
	"fmt"
	"testing"
)

// The indexed-analytics endpoint tests run a server whose index
// threshold is tiny, so a handful of runs exercises the metric-index
// path that production only reaches at 256+ runs.

func indexedServer(t *testing.T, n int) *Server {
	t.Helper()
	srv, _ := seedServer(t, n, Options{CacheSize: 16, IndexThreshold: 4})
	return srv
}

// TestIndexedNearestMatchesExact: the indexed /nearest answer equals
// the ?exact=1 dense answer byte for byte, and the payload advertises
// which path served it.
func TestIndexedNearestMatchesExact(t *testing.T) {
	srv := indexedServer(t, 8)
	var idx, exact nearestPayload
	if rec := do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=3", nil, &idx); rec.Code != 200 {
		t.Fatalf("nearest = %d %q", rec.Code, rec.Body.String())
	}
	if !idx.Indexed {
		t.Fatalf("cohort of 8 with threshold 4 should answer indexed: %+v", idx)
	}
	if rec := do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=3&exact=1", nil, &exact); rec.Code != 200 {
		t.Fatalf("exact nearest = %d %q", rec.Code, rec.Body.String())
	}
	if exact.Indexed {
		t.Fatalf("?exact=1 should force the dense path: %+v", exact)
	}
	if len(idx.Neighbors) != 3 || len(exact.Neighbors) != 3 {
		t.Fatalf("neighbor counts: %d vs %d", len(idx.Neighbors), len(exact.Neighbors))
	}
	for i := range idx.Neighbors {
		if idx.Neighbors[i] != exact.Neighbors[i] {
			t.Fatalf("neighbor %d diverged: indexed %+v, exact %+v", i, idx.Neighbors[i], exact.Neighbors[i])
		}
	}

	// Exact responses bypass the result LRU in both directions: the
	// indexed answer was cached under the plain key, the exact answer
	// is never cached.
	var again nearestPayload
	do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=3", nil, &again)
	if !again.Cached {
		t.Fatal("indexed answer should be served from cache on repeat")
	}
	var exact2 nearestPayload
	do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=3&exact=1", nil, &exact2)
	if exact2.Cached {
		t.Fatal("?exact=1 must not hit the result cache")
	}
}

// TestIndexedOutliersMatchesExact: scores and order are byte-identical;
// only the mean_all context differs (indexed omits it).
func TestIndexedOutliersMatchesExact(t *testing.T) {
	srv := indexedServer(t, 8)
	var idx, exact outliersPayload
	if rec := do(t, srv, "GET", "/v1/specs/pa/outliers?k=2", nil, &idx); rec.Code != 200 {
		t.Fatalf("outliers = %d %q", rec.Code, rec.Body.String())
	}
	if rec := do(t, srv, "GET", "/v1/specs/pa/outliers?k=2&exact=1", nil, &exact); rec.Code != 200 {
		t.Fatalf("exact outliers = %d %q", rec.Code, rec.Body.String())
	}
	if !idx.Indexed || exact.Indexed {
		t.Fatalf("indexed flags: %v %v", idx.Indexed, exact.Indexed)
	}
	if len(idx.Outliers) != 8 || len(exact.Outliers) != 8 {
		t.Fatalf("outlier counts: %d vs %d", len(idx.Outliers), len(exact.Outliers))
	}
	sawMeanAll := false
	for i := range idx.Outliers {
		if idx.Outliers[i].Run != exact.Outliers[i].Run || idx.Outliers[i].Score != exact.Outliers[i].Score {
			t.Fatalf("rank %d diverged: indexed %+v, exact %+v", i, idx.Outliers[i], exact.Outliers[i])
		}
		if idx.Outliers[i].MeanAll != 0 {
			t.Fatalf("indexed mean_all should be omitted: %+v", idx.Outliers[i])
		}
		if exact.Outliers[i].MeanAll != 0 {
			sawMeanAll = true
		}
	}
	if !sawMeanAll {
		t.Fatal("exact path lost its mean_all context")
	}
}

// TestIndexedClusterEndpoint: past the threshold /cluster answers by
// sampled k-medoids — valid partition, zero silhouette, indexed flag
// set — while ?exact=1 still runs full PAM.
func TestIndexedClusterEndpoint(t *testing.T) {
	srv := indexedServer(t, 8)
	var p clusterPayload
	if rec := do(t, srv, "GET", "/v1/specs/pa/cluster?k=2&seed=5", nil, &p); rec.Code != 200 {
		t.Fatalf("cluster = %d %q", rec.Code, rec.Body.String())
	}
	if !p.Indexed || p.Silhouette != 0 || p.K != 2 || len(p.Clusters) != 2 {
		t.Fatalf("indexed cluster payload: %+v", p)
	}
	seen := map[string]bool{}
	for _, c := range p.Clusters {
		found := false
		for _, r := range c.Runs {
			seen[r] = true
			if r == c.Medoid {
				found = true
			}
		}
		if !found {
			t.Fatalf("medoid %s outside its cluster", c.Medoid)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("partition covers %d of 8 runs", len(seen))
	}
	var ex clusterPayload
	if rec := do(t, srv, "GET", "/v1/specs/pa/cluster?k=2&seed=5&exact=1", nil, &ex); rec.Code != 200 {
		t.Fatalf("exact cluster = %d %q", rec.Code, rec.Body.String())
	}
	if ex.Indexed {
		t.Fatalf("exact cluster should be dense: %+v", ex)
	}
	// Sampled and exact objectives agree closely on a tiny cohort
	// (the sample covers everything, only seeding differs).
	if p.Cost_ > ex.Cost_*1.05+1e-9 {
		t.Fatalf("sampled objective %g strays beyond 5%% of exact %g", p.Cost_, ex.Cost_)
	}
}

// TestIndexedInvalidation: run imports and deletions keep the indexed
// cohort honest, exactly like the dense one.
func TestIndexedInvalidation(t *testing.T) {
	srv := indexedServer(t, 6)
	var before outliersPayload
	do(t, srv, "GET", "/v1/specs/pa/outliers?k=2", nil, &before)
	if !before.Indexed || len(before.Outliers) != 6 {
		t.Fatalf("seed cohort: %+v", before)
	}
	// Import one more run, then delete two: the cohort shrinks to 5.
	if rec := do(t, srv, "POST", "/v1/specs/pa/runs/extra", encodeRun(t, srv.st, 99), nil); rec.Code != 200 && rec.Code != 201 {
		t.Fatalf("import = %d", rec.Code)
	}
	var grown outliersPayload
	do(t, srv, "GET", "/v1/specs/pa/outliers?k=2", nil, &grown)
	if len(grown.Outliers) != 7 || grown.Cached {
		t.Fatalf("after import: %+v", grown)
	}
	for _, name := range []string{"r0", "extra"} {
		if rec := do(t, srv, "DELETE", "/v1/specs/pa/runs/"+name, nil, nil); rec.Code != 200 && rec.Code != 204 {
			t.Fatalf("delete %s = %d", name, rec.Code)
		}
	}
	var after outliersPayload
	do(t, srv, "GET", "/v1/specs/pa/outliers?k=2", nil, &after)
	if len(after.Outliers) != 5 || after.Cached {
		t.Fatalf("after deletes: %+v", after)
	}
	for _, o := range after.Outliers {
		if o.Run == "r0" || o.Run == "extra" {
			t.Fatalf("deleted run still scored: %+v", o)
		}
	}
}

// TestMetricIndexStats: the /stats payload aggregates index counters
// across live cohorts.
func TestMetricIndexStats(t *testing.T) {
	srv := indexedServer(t, 8)
	for i := 0; i < 3; i++ {
		do(t, srv, "GET", fmt.Sprintf("/v1/specs/pa/nearest?run=r%d&k=3", i), nil, nil)
	}
	st := srv.Stats()
	if st.MetricIndex.IndexedCohorts < 1 {
		t.Fatalf("no indexed cohorts reported: %+v", st.MetricIndex)
	}
	if st.MetricIndex.ExactDiffs <= 0 {
		t.Fatalf("exact diff counter flat: %+v", st.MetricIndex)
	}
	if st.MetricIndex.PrunedPairs < 0 {
		t.Fatalf("negative pruned counter: %+v", st.MetricIndex)
	}
}

// TestNearestResolvesRunByName: ?run= resolves through the view's name
// lookup on every cohort shape — dense, indexed, and the one-shot
// dense matrix ?exact=1 builds over an indexed cohort — and an unknown
// name 404s on each.
func TestNearestResolvesRunByName(t *testing.T) {
	dense, _ := seedServer(t, 6, Options{CacheSize: 16})
	for _, c := range []struct {
		name    string
		srv     *Server
		query   string
		indexed bool
	}{
		{"dense", dense, "", false},
		{"indexed", indexedServer(t, 6), "", true},
		{"indexed-exact", indexedServer(t, 6), "&exact=1", false},
	} {
		var p nearestPayload
		if rec := do(t, c.srv, "GET", "/v1/specs/pa/nearest?run=r4&k=2"+c.query, nil, &p); rec.Code != 200 {
			t.Fatalf("%s: nearest = %d %q", c.name, rec.Code, rec.Body.String())
		}
		if p.Run != "r4" || p.Indexed != c.indexed || len(p.Neighbors) != 2 {
			t.Fatalf("%s: payload %+v", c.name, p)
		}
		for _, nb := range p.Neighbors {
			if nb.Run == "r4" || nb.Run == "" {
				t.Fatalf("%s: bad neighbor %+v", c.name, nb)
			}
		}
		if rec := do(t, c.srv, "GET", "/v1/specs/pa/nearest?run=zz&k=2"+c.query, nil, nil); rec.Code != 404 {
			t.Fatalf("%s: unknown run = %d, want 404", c.name, rec.Code)
		}
	}
}

// TestAnalyticsChargeDiffStage: the analytics routes charge their
// cohort sync and query to the diff stage, a delete charges the store
// stage, and no request's stages add up to more than its total.
func TestAnalyticsChargeDiffStage(t *testing.T) {
	timings := make(chan RequestTiming, 8)
	srv, _ := seedServer(t, 8, Options{
		CacheSize:       16,
		IndexThreshold:  4,
		OnRequestTiming: func(rt *RequestTiming) { timings <- *rt },
	})
	for _, target := range []string{
		"/v1/specs/pa/nearest?run=r0&k=3",
		"/v1/specs/pa/nearest?run=r5&k=3",
		"/v1/specs/pa/outliers?k=2",
		"/v1/specs/pa/cluster?k=2",
	} {
		var p struct{ Indexed bool }
		if rec := do(t, srv, "GET", target, nil, &p); rec.Code != 200 || !p.Indexed {
			t.Fatalf("%s = %d indexed=%v %q", target, rec.Code, p.Indexed, rec.Body.String())
		}
		rt := <-timings
		if rt.DiffMS <= 0 {
			t.Fatalf("%s charged no diff time: %+v", target, rt)
		}
		requireStagesWithinTotal(t, target, rt)
	}
	// A delete is store work: it rewrites the spec's checkpoint.
	if rec := do(t, srv, "DELETE", "/v1/specs/pa/runs/r7", nil, nil); rec.Code != 200 {
		t.Fatalf("delete = %d %q", rec.Code, rec.Body.String())
	}
	rt := <-timings
	if rt.Route != "delete" || rt.StoreMS <= 0 {
		t.Fatalf("delete charged no store time: %+v", rt)
	}
	requireStagesWithinTotal(t, "delete", rt)
}

func requireStagesWithinTotal(t *testing.T, label string, rt RequestTiming) {
	t.Helper()
	if sum := rt.ParseMS + rt.DiffMS + rt.CacheMS + rt.StoreMS + rt.LedgerMS; sum > rt.TotalMS {
		t.Fatalf("%s: stages sum to %.3f ms, above the %.3f ms total: %+v", label, sum, rt.TotalMS, rt)
	}
}
