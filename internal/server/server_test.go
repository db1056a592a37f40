package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/wfxml"
)

// seedServer builds a store over a fresh directory with the PA
// catalog workflow under "pa" and n generated runs named r0..r{n-1},
// and returns a server over it.
func seedServer(tb testing.TB, n int, opts Options) (*Server, *store.Store) {
	return seedServerOn(tb, fsBackend(tb, tb.TempDir()), n, opts)
}

// seedServerOn is seedServer over a caller-chosen backend: a directory
// the test reaches under, or a decorator such as ledgerGate.
func seedServerOn(tb testing.TB, be store.Backend, n int, opts Options) (*Server, *store.Store) {
	tb.Helper()
	st := store.OpenBackend(be)
	pa, err := gen.Catalog("PA")
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.SaveSpec("pa", pa); err != nil {
		tb.Fatal(err)
	}
	sp, err := st.LoadSpec("pa")
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			tb.Fatal(err)
		}
		if err := st.SaveRun("pa", fmt.Sprintf("r%d", i), r); err != nil {
			tb.Fatal(err)
		}
	}
	return New(st, opts), st
}

// fsBackend opens a filesystem backend rooted at dir.
func fsBackend(tb testing.TB, dir string) store.Backend {
	tb.Helper()
	be, err := store.NewFSBackend(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return be
}

// ledgerGate is a store.Backend whose armed gate holds the next
// append to a ledger until it is released. Every commit appends to
// its spec's ledger (a deduplicated one skips the segment), so a test
// can hold one commit open while the jobs it wants batched together
// queue up behind it.
type ledgerGate struct {
	store.Backend
	mu      sync.Mutex
	entered chan struct{} // closed once the held append arrives; nil when disarmed
	release chan struct{}
}

// arm makes the next ledger append wait until release is called;
// entered is closed once that append is held.
func (g *ledgerGate) arm() (entered <-chan struct{}, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entered, g.release = make(chan struct{}), make(chan struct{})
	rel := g.release
	return g.entered, func() { close(rel) }
}

func (g *ledgerGate) Append(key string, data []byte, sync bool) error {
	if strings.HasSuffix(key, "ledger.log") {
		g.mu.Lock()
		entered, release := g.entered, g.release
		g.entered = nil
		g.mu.Unlock()
		if entered != nil {
			close(entered)
			<-release
		}
	}
	return g.Backend.Append(key, data, sync)
}

// waitQueued returns once at least n jobs wait on the server's ingest
// queue. With the batcher held in a gated commit, those jobs are the
// ones its next gather takes.
func waitQueued(tb testing.TB, s *Server, n int) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.ingest.Stats().QueueDepth < n {
		if time.Now().After(deadline) {
			tb.Fatalf("ingest queue depth %d after 10s, want >= %d", s.ingest.Stats().QueueDepth, n)
		}
		runtime.Gosched()
	}
}

// get performs a request against the handler directly and decodes a
// JSON body when out is non-nil.
func do(tb testing.TB, h http.Handler, method, target string, body []byte, out any) *httptest.ResponseRecorder {
	tb.Helper()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			tb.Fatalf("%s %s: bad JSON %q: %v", method, target, rec.Body.String(), err)
		}
	}
	return rec
}

func TestBrowseEndpoints(t *testing.T) {
	srv, _ := seedServer(t, 3, Options{CacheSize: 8})

	var specs struct {
		Specs []struct {
			Name string `json:"name"`
			Runs int    `json:"runs"`
		} `json:"specs"`
	}
	rec := do(t, srv, "GET", "/v1/specs", nil, &specs)
	if rec.Code != 200 || len(specs.Specs) != 1 || specs.Specs[0].Name != "pa" || specs.Specs[0].Runs != 3 {
		t.Fatalf("GET /specs = %d %q", rec.Code, rec.Body.String())
	}

	var runs struct {
		Spec string   `json:"spec"`
		Runs []string `json:"runs"`
	}
	rec = do(t, srv, "GET", "/v1/specs/pa/runs", nil, &runs)
	if rec.Code != 200 || len(runs.Runs) != 3 || runs.Runs[0] != "r0" {
		t.Fatalf("GET /specs/pa/runs = %d %q", rec.Code, rec.Body.String())
	}

	if rec := do(t, srv, "GET", "/v1/specs/nope/runs", nil, nil); rec.Code != 404 {
		t.Fatalf("unknown spec: got %d, want 404", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/healthz", nil, nil); rec.Code != 200 {
		t.Fatalf("healthz = %d", rec.Code)
	}
}

func TestDiffEndpoint(t *testing.T) {
	srv, st := seedServer(t, 3, Options{CacheSize: 8})

	var p diffPayload
	rec := do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1", nil, &p)
	if rec.Code != 200 {
		t.Fatalf("diff = %d %q", rec.Code, rec.Body.String())
	}
	if p.Cached {
		t.Fatal("first diff should not be cached")
	}
	// Cross-check against the store's own differencing.
	want, err := st.Diff("pa", "r0", "r1", cost.Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Distance != want.Distance {
		t.Fatalf("distance = %g, want %g", p.Distance, want.Distance)
	}
	if p.OpCount != len(p.Ops) {
		t.Fatalf("op_count %d != len(ops) %d", p.OpCount, len(p.Ops))
	}

	// Second request must come from the cache with the same payload.
	var p2 diffPayload
	do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1", nil, &p2)
	if !p2.Cached {
		t.Fatal("second diff should be cached")
	}
	if p2.Distance != p.Distance || p2.OpCount != p.OpCount {
		t.Fatalf("cached payload drifted: %+v vs %+v", p2, p)
	}

	// Distinct cost models are distinct cache entries.
	var pl diffPayload
	do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1?cost=length", nil, &pl)
	if pl.Cached {
		t.Fatal("length-cost diff must not hit the unit-cost entry")
	}
	if pl.Cost != "length" {
		t.Fatalf("cost = %q", pl.Cost)
	}
	// Nearby power epsilons must not collide in the cache or the
	// engine pools: Power.Name() carries full precision.
	var pe diffPayload
	do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1?cost=power:0.121", nil, &pe)
	if pe.Cached || pe.Cost != "power(0.121)" {
		t.Fatalf("power:0.121 payload = %+v", pe)
	}
	do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1?cost=power:0.124", nil, &pe)
	if pe.Cached || pe.Cost != "power(0.124)" {
		t.Fatalf("power:0.124 must be its own entry, got %+v", pe)
	}

	// Errors.
	if rec := do(t, srv, "GET", "/v1/specs/pa/diff/r0/zz", nil, nil); rec.Code != 404 {
		t.Fatalf("unknown run: got %d, want 404", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/specs/zz/diff/r0/r1", nil, nil); rec.Code != 404 {
		t.Fatalf("unknown spec: got %d, want 404", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1?cost=bogus", nil, nil); rec.Code != 400 {
		t.Fatalf("bad cost model: got %d, want 400", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1?cost=power:2", nil, nil); rec.Code != 400 {
		t.Fatalf("metric-violating cost model: got %d, want 400", rec.Code)
	}
	for _, bad := range []string{"power:nan", "power:-1", "power:inf"} {
		if rec := do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1?cost="+bad, nil, nil); rec.Code != 400 {
			t.Fatalf("%s: got %d, want 400", bad, rec.Code)
		}
	}
}

func TestDiffSVG(t *testing.T) {
	srv, _ := seedServer(t, 2, Options{CacheSize: 8})
	rec := do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1/svg", nil, nil)
	if rec.Code != 200 {
		t.Fatalf("svg = %d %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.HasPrefix(body, "<svg") || !strings.Contains(body, "edit distance") {
		t.Fatalf("not a pair SVG: %.120s", body)
	}
	// Cached second hit serves identical bytes.
	rec2 := do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1/svg", nil, nil)
	if rec2.Body.String() != body {
		t.Fatal("cached SVG differs from computed SVG")
	}
}

// TestPathTraversalRejected covers the HTTP boundary: names with
// traversal components or separators — including URL-encoded ones the
// mux decodes back into the path value — must be rejected before they
// reach the filesystem, with a 400 (validation), never a 404 (probe).
func TestPathTraversalRejected(t *testing.T) {
	srv, st := seedServer(t, 2, Options{CacheSize: 8})
	// A file outside the repository root that a traversal could reach.
	for _, target := range []string{
		"/v1/specs/pa/diff/%2e%2e/r1",
		"/v1/specs/pa/diff/r0/%2e%2e%2fr1",
		"/v1/specs/%2e%2e%2fpa/diff/r0/r1",
		"/v1/specs/%2e%2e/runs",
		"/v1/specs/pa/runs/%2e%2e%2fescape",
		"/v1/specs/pa/runs/a%2fb",
		"/v1/specs/pa/runs/a%5cb", // backslash
		"/v1/specs/%2e%2e/cohort",
	} {
		method := "GET"
		if strings.Contains(target, "/runs/") {
			method = "POST"
		}
		rec := do(t, srv, method, target, []byte("<run/>"), nil)
		if rec.Code != 400 {
			t.Errorf("%s %s: got %d, want 400 (%q)", method, target, rec.Code, rec.Body.String())
		}
	}
	// The POST ?name= channel is validated too.
	rec := do(t, srv, "POST", "/v1/specs/pa/runs?name=..", []byte("<run/>"), nil)
	if rec.Code != 400 {
		t.Fatalf("POST ?name=..: got %d, want 400", rec.Code)
	}
	// And the store itself refuses traversal names outright.
	if _, err := st.LoadRun("pa", "../escape"); err == nil {
		t.Fatal("store.LoadRun accepted a separator name")
	}
}

func TestImportAndDelete(t *testing.T) {
	srv, st := seedServer(t, 2, Options{CacheSize: 8})
	sp, err := st.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wfxml.EncodeRun(&buf, r, "fresh"); err != nil {
		t.Fatal(err)
	}

	rec := do(t, srv, "POST", "/v1/specs/pa/runs/fresh", buf.Bytes(), nil)
	if rec.Code != 201 {
		t.Fatalf("import = %d %q", rec.Code, rec.Body.String())
	}
	var p diffPayload
	if rec := do(t, srv, "GET", "/v1/specs/pa/diff/r0/fresh", nil, &p); rec.Code != 200 {
		t.Fatalf("diff of imported run = %d %q", rec.Code, rec.Body.String())
	}

	// Garbage XML is a 400, unknown spec a 404.
	if rec := do(t, srv, "POST", "/v1/specs/pa/runs/bad", []byte("not xml"), nil); rec.Code != 400 {
		t.Fatalf("bad XML import = %d", rec.Code)
	}
	if rec := do(t, srv, "POST", "/v1/specs/zz/runs/x", buf.Bytes(), nil); rec.Code != 404 {
		t.Fatalf("import into unknown spec = %d", rec.Code)
	}

	if rec := do(t, srv, "DELETE", "/v1/specs/pa/runs/fresh", nil, nil); rec.Code != 200 {
		t.Fatalf("delete = %d %q", rec.Code, rec.Body.String())
	}
	if rec := do(t, srv, "GET", "/v1/specs/pa/diff/r0/fresh", nil, nil); rec.Code != 404 {
		t.Fatalf("diff of deleted run = %d, want 404", rec.Code)
	}
	if rec := do(t, srv, "DELETE", "/v1/specs/pa/runs/fresh", nil, nil); rec.Code != 404 {
		t.Fatalf("double delete = %d, want 404", rec.Code)
	}
}

// TestCacheInvalidation proves a cached diff stops answering once a
// run it compares is overwritten or deleted, and survives both a
// re-import of identical content and changes to unrelated runs.
func TestCacheInvalidation(t *testing.T) {
	srv, st := seedServer(t, 3, Options{CacheSize: 8})

	warm := func(a, b string) diffPayload {
		var p diffPayload
		rec := do(t, srv, "GET", "/v1/specs/pa/diff/"+a+"/"+b, nil, &p)
		if rec.Code != 200 {
			t.Fatalf("diff %s %s = %d", a, b, rec.Code)
		}
		return p
	}
	warm("r0", "r1")
	warm("r1", "r2")
	warm("r0", "r2")
	if !warm("r0", "r1").Cached || !warm("r0", "r2").Cached {
		t.Fatal("cache should be warm")
	}

	// Re-importing r1 unchanged keeps its content hash, so its diffs
	// stay cached.
	same, err := st.LoadRun("pa", "r1")
	if err != nil {
		t.Fatal(err)
	}
	var sameXML bytes.Buffer
	if err := wfxml.EncodeRun(&sameXML, same, "r1"); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, srv, "POST", "/v1/specs/pa/runs/r1", sameXML.Bytes(), nil); rec.Code != 201 {
		t.Fatalf("identical re-import = %d %q", rec.Code, rec.Body.String())
	}
	if !warm("r0", "r1").Cached {
		t.Fatal("diff r0/r1 must stay cached after r1 was re-imported unchanged")
	}

	// Overwrite r1 with a different run; entries touching r1 must go.
	sp, err := st.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1234))
	r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wfxml.EncodeRun(&buf, r, "r1"); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, srv, "POST", "/v1/specs/pa/runs/r1", buf.Bytes(), nil); rec.Code != 201 {
		t.Fatalf("overwrite = %d %q", rec.Code, rec.Body.String())
	}
	if warm("r0", "r1").Cached {
		t.Fatal("diff r0/r1 must be recomputed after r1 was overwritten")
	}
	if warm("r1", "r2").Cached {
		t.Fatal("diff r1/r2 must be recomputed after r1 was overwritten")
	}
	if !warm("r0", "r2").Cached {
		t.Fatal("diff r0/r2 does not involve r1 and must stay cached")
	}

	// Deleting through the store API (not HTTP) is seen too: the
	// entries name the content they were computed from, so any writer
	// is covered.
	if err := st.DeleteRun("pa", "r2"); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, srv, "GET", "/v1/specs/pa/diff/r0/r2", nil, nil); rec.Code != 404 {
		t.Fatalf("diff of store-deleted run = %d, want 404", rec.Code)
	}
	if !warm("r0", "r1").Cached {
		t.Fatal("diff r0/r1 does not involve r2 and must stay cached")
	}
}

// TestLRUEviction exercises the bound directly.
func TestLRUEviction(t *testing.T) {
	c := newResultCache(2)
	k := func(a, b string) cacheKey { return cacheKey{spec: "s", runA: a, runB: b, cost: "unit", kind: kindDiff} }
	in := inputs{hashA: "h1", hashB: "h2"}
	c.add(k("a", "b"), in, 1)
	c.add(k("b", "c"), in, 2)
	if _, ok := c.get(k("a", "b"), in); !ok {
		t.Fatal("a/b should be cached")
	}
	c.add(k("c", "d"), in, 3) // evicts b/c (LRU, since a/b was just touched)
	if _, ok := c.get(k("b", "c"), in); ok {
		t.Fatal("b/c should have been evicted")
	}
	if _, ok := c.get(k("a", "b"), in); !ok {
		t.Fatal("a/b should have survived eviction")
	}
	s := c.snapshot()
	if s.Evictions != 1 || s.Size != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	// An entry answers only its own inputs, and new inputs take over
	// the key's one slot instead of adding a second entry.
	changed := inputs{hashA: "h1", hashB: "h3"}
	if _, ok := c.get(k("a", "b"), changed); ok {
		t.Fatal("a/b answered for changed inputs")
	}
	c.add(k("a", "b"), changed, 4)
	if v, ok := c.get(k("a", "b"), changed); !ok || v != 4 {
		t.Fatalf("a/b after re-add = %v, %v", v, ok)
	}
	if _, ok := c.get(k("a", "b"), in); ok {
		t.Fatal("superseded a/b entry still answers")
	}
	if s := c.snapshot(); s.Size != 2 || s.Evictions != 1 {
		t.Fatalf("re-add grew the cache: %+v", s)
	}
	// Disabled cache never stores.
	off := newResultCache(0)
	off.add(k("a", "b"), in, 1)
	if _, ok := off.get(k("a", "b"), in); ok {
		t.Fatal("disabled cache returned a value")
	}
}

// TestEnginePoolCap: past the cap the pool map stops growing and get
// falls back to one-off engines instead of failing.
func TestEnginePoolCap(t *testing.T) {
	p := newEnginePools()
	for i := 0; i < maxEnginePools+10; i++ {
		m := cost.Power{Epsilon: float64(i) / float64(2*(maxEnginePools+10))}
		eng := p.get("spec", m)
		if eng == nil {
			t.Fatalf("get %d returned nil engine", i)
		}
		p.put("spec", m, eng)
	}
	if n := p.poolCount(); n != maxEnginePools {
		t.Fatalf("pool map grew to %d, cap is %d", n, maxEnginePools)
	}
}

// TestConcurrentDiffs hammers the diff endpoint from many goroutines
// (run under -race in CI): every response must be consistent with the
// sequentially computed distances, whether it was served cold, from a
// pooled engine, or from the cache.
func TestConcurrentDiffs(t *testing.T) {
	srv, st := seedServer(t, 4, Options{CacheSize: 4})

	type pair struct{ a, b string }
	pairs := []pair{{"r0", "r1"}, {"r0", "r2"}, {"r0", "r3"}, {"r1", "r2"}, {"r1", "r3"}, {"r2", "r3"}}
	want := make(map[pair]float64)
	for _, p := range pairs {
		res, err := st.Diff("pa", p.a, p.b, cost.Unit{})
		if err != nil {
			t.Fatal(err)
		}
		want[p] = res.Distance
	}

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				p := pairs[(g+i)%len(pairs)]
				var got diffPayload
				rec := do(t, srv, "GET", "/v1/specs/pa/diff/"+p.a+"/"+p.b, nil, &got)
				if rec.Code != 200 {
					errs <- fmt.Errorf("%v: status %d", p, rec.Code)
					return
				}
				if got.Distance != want[p] {
					errs <- fmt.Errorf("%v: distance %g, want %g", p, got.Distance, want[p])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st2 := srv.Stats()
	if st2.Engines.Gets == 0 {
		t.Fatal("no engine checkouts recorded")
	}
	if st2.Engines.Reused == 0 {
		t.Fatal("expected at least one pooled-engine reuse under concurrency")
	}
}

func TestCohortEndpoint(t *testing.T) {
	srv, st := seedServer(t, 4, Options{CacheSize: 8})

	var p cohortPayload
	rec := do(t, srv, "GET", "/v1/specs/pa/cohort", nil, &p)
	if rec.Code != 200 {
		t.Fatalf("cohort = %d %q", rec.Code, rec.Body.String())
	}
	if len(p.Labels) != 4 || len(p.Matrix) != 4 || len(p.Matrix[0]) != 4 {
		t.Fatalf("cohort shape: %d labels, %dx%d matrix", len(p.Labels), len(p.Matrix), len(p.Matrix[0]))
	}
	mx := pairDiffMatrix(t, st, nil, cost.Unit{})
	for i := range mx.D.Len() {
		for j := range mx.D.Len() {
			if p.Matrix[i][j] != mx.D.At(i, j) {
				t.Fatalf("matrix[%d][%d] = %g, want %g", i, j, p.Matrix[i][j], mx.D.At(i, j))
			}
		}
	}
	if p.Dendrogram == "" || p.Medoid == "" || p.Outlier == "" {
		t.Fatalf("cohort payload incomplete: %+v", p)
	}
	// /cohort names the outlier /outliers ranks first at its default
	// k = 3; of runs tied at the top score, the first by name.
	var o outliersPayload
	if rec := do(t, srv, "GET", "/v1/specs/pa/outliers?k=3", nil, &o); rec.Code != 200 {
		t.Fatalf("outliers = %d %q", rec.Code, rec.Body.String())
	}
	top := o.Outliers[0].Run
	for _, sc := range o.Outliers {
		if sc.Score == o.Outliers[0].Score {
			top = min(top, sc.Run)
		}
	}
	if p.Outlier != top {
		t.Fatalf("/cohort outlier %q, /outliers ranks %+v", p.Outlier, o.Outliers)
	}

	if rec := do(t, srv, "GET", "/v1/specs/zz/cohort", nil, nil); rec.Code != 404 {
		t.Fatalf("cohort of unknown spec = %d, want 404", rec.Code)
	}
}

// TestCohortStream checks the NDJSON streaming mode: progress lines
// followed by a final result object.
func TestCohortStream(t *testing.T) {
	srv, _ := seedServer(t, 4, Options{CacheSize: 8})
	rec := do(t, srv, "GET", "/v1/specs/pa/cohort?stream=1", nil, nil)
	if rec.Code != 200 {
		t.Fatalf("stream cohort = %d %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("want progress + result lines, got %d: %q", len(lines), rec.Body.String())
	}
	sawProgress := false
	for _, ln := range lines[:len(lines)-1] {
		var ev struct {
			Type  string `json:"type"`
			Done  int    `json:"done"`
			Total int    `json:"total"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		if ev.Type != "progress" || ev.Total != 6 || ev.Done < 1 || ev.Done > 6 {
			t.Fatalf("bad progress event: %q", ln)
		}
		sawProgress = true
	}
	if !sawProgress {
		t.Fatal("no progress events before the result")
	}
	var final struct {
		Type   string        `json:"type"`
		Cohort cohortPayload `json:"cohort"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if final.Type != "result" || len(final.Cohort.Labels) != 4 {
		t.Fatalf("bad final event: %q", lines[len(lines)-1])
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, _ := seedServer(t, 2, Options{CacheSize: 8})
	do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1", nil, nil)
	do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1", nil, nil)

	var st struct {
		Requests map[string]int64 `json:"requests"`
		Cache    cacheStats       `json:"cache"`
		Engines  engineStats      `json:"engines"`
		Ingest   json.RawMessage  `json:"ingest"`
		Storage  map[string]any   `json:"storage"`
	}
	rec := do(t, srv, "GET", "/v1/stats", nil, &st)
	if rec.Code != 200 {
		t.Fatalf("stats = %d", rec.Code)
	}
	// The ingest section is the pipeline's counters, then the ticket
	// counts, in this order; the pipeline's closed flag stays internal.
	dec := json.NewDecoder(bytes.NewReader(st.Ingest))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	wantKeys := "[queue_depth queue_capacity max_depth enqueued rejected committed failed batches max_batch avg_batch slow_commits last_commit_ms tickets_pending tickets_retained]"
	if fmt.Sprint(keys) != wantKeys {
		t.Fatalf("ingest keys = %v, want %s", keys, wantKeys)
	}
	// The storage section names the backend and nothing else; metrics
	// carry no per-backend families.
	if fmt.Sprint(st.Storage) != "map[backend:fs]" {
		t.Fatalf("storage section = %v, want only backend fs", st.Storage)
	}
	if rec := do(t, srv, "GET", "/v1/metrics", nil, nil); strings.Contains(rec.Body.String(), "provdiff_storage_") {
		t.Fatal("metrics expose storage families")
	}
	if st.Requests["diff"] != 2 {
		t.Fatalf("diff count = %d, want 2", st.Requests["diff"])
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Engines.Gets != 1 || st.Engines.News != 1 {
		t.Fatalf("engine gets/news = %d/%d, want 1/1", st.Engines.Gets, st.Engines.News)
	}
}

// TestGracefulUse exercises the handler through a real HTTP server —
// the transport the CI smoke test uses.
func TestOverRealTransport(t *testing.T) {
	srv, _ := seedServer(t, 2, Options{CacheSize: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/specs/pa/diff/r0/r1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var p diffPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Spec != "pa" || p.RunA != "r0" {
		t.Fatalf("payload = %+v", p)
	}
}
