package server

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/wfxml"
)

// bulkTar builds a tar archive of n fresh runs of the stored "pa"
// spec, named prefix0..prefix{n-1}, and returns it with the names.
func bulkTar(tb testing.TB, st *store.Store, n int, seed int64, prefix string) ([]byte, []string) {
	tb.Helper()
	sp, err := st.LoadSpec("pa")
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			tb.Fatal(err)
		}
		var xmlBuf bytes.Buffer
		names[i] = fmt.Sprintf("%s%d", prefix, i)
		if err := wfxml.EncodeRun(&xmlBuf, r, names[i]); err != nil {
			tb.Fatal(err)
		}
		if err := tw.WriteHeader(&tar.Header{
			Name: "runs/" + names[i] + ".xml",
			Mode: 0o644,
			Size: int64(xmlBuf.Len()),
		}); err != nil {
			tb.Fatal(err)
		}
		if _, err := tw.Write(xmlBuf.Bytes()); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), names
}

func TestBulkImportTar(t *testing.T) {
	srv, st := seedServer(t, 2, Options{CacheSize: 16})
	archive, names := bulkTar(t, st, 5, 31, "bulk")

	var resp struct {
		Spec     string   `json:"spec"`
		Imported int      `json:"imported"`
		Runs     []string `json:"runs"`
	}
	rec := do(t, srv, "POST", "/v1/specs/pa/runs:bulk", archive, &resp)
	if rec.Code != http.StatusCreated {
		t.Fatalf("bulk import = %d %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("bulk import Content-Type = %q", ct)
	}
	if resp.Imported != 5 || len(resp.Runs) != 5 || resp.Spec != "pa" {
		t.Fatalf("payload: %+v", resp)
	}
	var runs struct {
		Runs []string `json:"runs"`
	}
	do(t, srv, "GET", "/v1/specs/pa/runs", nil, &runs)
	if len(runs.Runs) != 7 {
		t.Fatalf("runs after bulk = %v", runs.Runs)
	}
	for _, n := range names {
		if rec := do(t, srv, "GET", "/v1/specs/pa/diff/r0/"+n, nil, nil); rec.Code != 200 {
			t.Fatalf("diff vs imported %s = %d", n, rec.Code)
		}
	}
}

func TestBulkImportNDJSON(t *testing.T) {
	srv, st := seedServer(t, 1, Options{CacheSize: 16})
	sp, err := st.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var body bytes.Buffer
	for i := 0; i < 3; i++ {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		var xmlBuf bytes.Buffer
		if err := wfxml.EncodeRun(&xmlBuf, r, "x"); err != nil {
			t.Fatal(err)
		}
		line, _ := json.Marshal(bulkRunJSON{Name: fmt.Sprintf("nd%d", i), XML: xmlBuf.String()})
		body.Write(line)
		body.WriteByte('\n')
	}
	req := httptest.NewRequest("POST", "/v1/specs/pa/runs:bulk", bytes.NewReader(body.Bytes()))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("ndjson bulk import = %d %q", rec.Code, rec.Body.String())
	}
	var runs struct {
		Runs []string `json:"runs"`
	}
	do(t, srv, "GET", "/v1/specs/pa/runs", nil, &runs)
	if len(runs.Runs) != 4 {
		t.Fatalf("runs after ndjson bulk = %v", runs.Runs)
	}
}

func TestBulkImportRejectsGarbage(t *testing.T) {
	srv, _ := seedServer(t, 1, Options{CacheSize: 8})
	if rec := do(t, srv, "POST", "/v1/specs/pa/runs:bulk", []byte("not a tar"), nil); rec.Code != 400 {
		t.Fatalf("garbage tar = %d", rec.Code)
	}
	if rec := do(t, srv, "POST", "/v1/specs/nope/runs:bulk", nil, nil); rec.Code != 404 {
		t.Fatalf("unknown spec = %d", rec.Code)
	}
}

// TestBulkImportSingleRebuild is the acceptance assertion for
// coalesced cohort sync: importing a whole cohort in one bulk
// request triggers exactly ONE cohort-matrix rebuild per spec, where
// the same runs imported one-by-one would each resync the matrix.
func TestBulkImportSingleRebuild(t *testing.T) {
	srv, st := seedServer(t, 4, Options{CacheSize: 16})
	// Build the incremental matrix.
	if rec := do(t, srv, "GET", "/v1/specs/pa/cluster?k=2", nil, nil); rec.Code != 200 {
		t.Fatalf("cluster = %d", rec.Code)
	}
	e := srv.cohorts.entry("pa", cost.Unit{})
	if e == nil {
		t.Fatal("no cohort entry")
	}
	if got := e.hc.Rebuilds(); got != 1 {
		t.Fatalf("initial build count = %d, want 1", got)
	}

	archive, _ := bulkTar(t, st, 6, 77, "cohort")
	if rec := do(t, srv, "POST", "/v1/specs/pa/runs:bulk", archive, nil); rec.Code != http.StatusCreated {
		t.Fatalf("bulk = %d", rec.Code)
	}
	// Resync happens lazily on the next analytics request; several
	// requests must still cost exactly one rebuild.
	for i := 0; i < 3; i++ {
		if rec := do(t, srv, "GET", "/v1/specs/pa/cluster?k=2", nil, nil); rec.Code != 200 {
			t.Fatalf("cluster after bulk = %d", rec.Code)
		}
	}
	if got := e.hc.Rebuilds(); got != 2 {
		t.Fatalf("rebuilds after bulk import = %d, want 2 (one initial + one for the whole batch)", got)
	}
	if n := e.hc.Len(); n != 10 {
		t.Fatalf("cohort size after bulk = %d, want 10", n)
	}

	// Contrast: per-run imports resync incrementally — no further full
	// rebuilds, one O(n) row each.
	body := encodeRun(t, st, 555)
	for i := 0; i < 2; i++ {
		target := fmt.Sprintf("/v1/specs/pa/runs/one%d", i)
		if rec := do(t, srv, "POST", target, body, nil); rec.Code != http.StatusCreated {
			t.Fatalf("single import = %d", rec.Code)
		}
		if rec := do(t, srv, "GET", "/v1/specs/pa/cluster?k=2", nil, nil); rec.Code != 200 {
			t.Fatalf("cluster after single import = %d", rec.Code)
		}
	}
	if got := e.hc.Rebuilds(); got != 2 {
		t.Fatalf("single-run imports caused full rebuilds: %d, want still 2", got)
	}
}

func TestExportRoundTrip(t *testing.T) {
	srv, st := seedServer(t, 3, Options{CacheSize: 8})
	rec := do(t, srv, "GET", "/v1/specs/pa/export", nil, nil)
	if rec.Code != 200 {
		t.Fatalf("export = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-tar" {
		t.Fatalf("export content-type = %q", ct)
	}
	runs, err := store.ReadRunTar(bytes.NewReader(rec.Body.Bytes()), 1<<24, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("exported %d runs, want 3", len(runs))
	}
	// The archive re-imports into a fresh service instance.
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := st.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.SaveSpec("pa", sp); err != nil {
		t.Fatal(err)
	}
	srv2 := New(st2, Options{CacheSize: 8})
	rec2 := do(t, srv2, "POST", "/v1/specs/pa/runs:bulk", rec.Body.Bytes(), nil)
	if rec2.Code != http.StatusCreated {
		t.Fatalf("re-import of export = %d %q", rec2.Code, rec2.Body.String())
	}
	var names struct {
		Runs []string `json:"runs"`
	}
	do(t, srv2, "GET", "/v1/specs/pa/runs", nil, &names)
	if len(names.Runs) != 3 {
		t.Fatalf("re-imported runs = %v", names.Runs)
	}
}

// TestBulkImportClusterRace hammers bulk imports against concurrent
// /cluster and /nearest queries; run under -race it proves the
// coalesced cohort sync shares no unsynchronized state with the
// analytics read path.
func TestBulkImportClusterRace(t *testing.T) {
	srv, st := seedServer(t, 4, Options{CacheSize: 32})
	if rec := do(t, srv, "GET", "/v1/specs/pa/cluster?k=2", nil, nil); rec.Code != 200 {
		t.Fatal("prime cluster")
	}
	const importers, readers, rounds = 2, 3, 5
	var wg sync.WaitGroup
	for im := 0; im < importers; im++ {
		wg.Add(1)
		go func(im int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				archive, _ := bulkTar(t, st, 2, int64(100+10*im+round), fmt.Sprintf("race%d-%d-", im, round))
				req := httptest.NewRequest("POST", "/v1/specs/pa/runs:bulk", bytes.NewReader(archive))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusCreated {
					t.Errorf("bulk import = %d %q", rec.Code, rec.Body.String())
					return
				}
			}
		}(im)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds*3; round++ {
				req := httptest.NewRequest("GET", "/v1/specs/pa/cluster?k=2", nil)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Errorf("cluster during bulk churn = %d %q", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	// Settled state: the incremental matrix covers exactly the stored
	// runs.
	v, _, err := srv.cohortView("pa", cost.Unit{}, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runs, err := st.ListRuns("pa")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != len(runs) {
		t.Fatalf("settled cohort has %d rows, store has %d runs", v.Len(), len(runs))
	}
}
