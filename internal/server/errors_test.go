package server

// Uniform error-envelope coverage: every failure mode the service can
// produce — client errors, missing resources, conflicts, oversized
// documents, backpressure, storage faults, shutdown, and even the
// mux's own unknown-path/method-mismatch responses — must answer with
// {"error":{"code":...,"message":...}} and nothing else.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ingest"
	"repro/internal/store"
	"repro/internal/store/faultfs"
)

// wantEnvelope asserts a response is exactly the error envelope with
// the given status and code, and returns the decoded detail.
func wantEnvelope(t *testing.T, rec *httptest.ResponseRecorder, status int, code string) errorDetail {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("status = %d, want %d (body %q)", rec.Code, status, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
		t.Fatalf("body %q is not JSON: %v", rec.Body.String(), err)
	}
	if len(top) != 1 || top["error"] == nil {
		t.Fatalf("body %q is not a bare error envelope", rec.Body.String())
	}
	var d errorDetail
	if err := json.Unmarshal(top["error"], &d); err != nil {
		t.Fatalf("error detail %q: %v", top["error"], err)
	}
	if d.Code != code {
		t.Errorf("error code = %q, want %q (message %q)", d.Code, code, d.Message)
	}
	if d.Message == "" {
		t.Error("error message is empty")
	}
	return d
}

func TestErrorEnvelopes(t *testing.T) {
	srv, st := seedServer(t, 2, Options{CacheSize: 8, MaxImportBytes: 512})
	ndjsonDup := func() []byte {
		line, err := json.Marshal(map[string]string{"name": "dupz", "xml": "<run/>"})
		if err != nil {
			t.Fatal(err)
		}
		return append(append(line, '\n'), line...)
	}()
	_ = st

	cases := []struct {
		name        string
		method      string
		target      string
		body        []byte
		contentType string
		status      int
		code        string
	}{
		{name: "bad int param", method: "GET", target: "/v1/specs/pa/cluster?k=abc", status: 400, code: "bad_request"},
		{name: "bad cost param", method: "GET", target: "/v1/specs/pa/diff/r0/r1?cost=bogus", status: 400, code: "bad_request"},
		{name: "unknown spec", method: "GET", target: "/v1/specs/nosuch/runs", status: 404, code: "not_found"},
		{name: "unknown run", method: "GET", target: "/v1/specs/pa/diff/r0/nosuch", status: 404, code: "not_found"},
		{name: "unknown ticket", method: "GET", target: "/v1/tickets/tdeadbeef", status: 404, code: "not_found"},
		{name: "duplicate bulk name", method: "POST", target: "/v1/specs/pa/runs:bulk", body: ndjsonDup, contentType: "application/x-ndjson", status: 409, code: "conflict"},
		{name: "oversized document", method: "POST", target: "/v1/specs/pa/runs/big", body: make([]byte, 4096), status: 413, code: "payload_too_large"},
		{name: "unknown path", method: "GET", target: "/v1/nope", status: 404, code: "not_found"},
		{name: "method mismatch", method: "PUT", target: "/v1/specs", status: 405, code: "method_not_allowed"},
		// The unversioned paths the API once answered are gone.
		{name: "unversioned specs", method: "GET", target: "/specs", status: 404, code: "not_found"},
		{name: "unversioned runs", method: "GET", target: "/specs/pa/runs", status: 404, code: "not_found"},
		{name: "unversioned import", method: "POST", target: "/specs/pa/runs/r9", body: []byte("<run/>"), status: 404, code: "not_found"},
		{name: "unversioned diff", method: "GET", target: "/diff/pa/r0/r1", status: 404, code: "not_found"},
		{name: "unversioned diff svg", method: "GET", target: "/diff/pa/r0/r1/svg", status: 404, code: "not_found"},
		{name: "unversioned cohort", method: "GET", target: "/cohort/pa", status: 404, code: "not_found"},
		{name: "unversioned cluster", method: "GET", target: "/specs/pa/cluster", status: 404, code: "not_found"},
		{name: "unversioned stats", method: "GET", target: "/stats", status: 404, code: "not_found"},
		{name: "unversioned metrics", method: "GET", target: "/metrics", status: 404, code: "not_found"},
		{name: "unversioned healthz", method: "GET", target: "/healthz", status: 404, code: "not_found"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(c.method, c.target, bytesReader(c.body))
			if c.contentType != "" {
				req.Header.Set("Content-Type", c.contentType)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			wantEnvelope(t, rec, c.status, c.code)
		})
	}
}

func bytesReader(b []byte) io.Reader {
	if b == nil {
		return http.NoBody
	}
	return io.NopCloser(newSliceReader(b))
}

func newSliceReader(b []byte) io.Reader { return &sliceReader{b: b} }

type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestEnvelope429Backpressure swaps in a pipeline whose commit is
// gated shut, fills its one-deep queue, and asserts the overflow
// answer: 429, rate_limited, Retry-After.
func TestEnvelope429Backpressure(t *testing.T) {
	srv, _ := seedServer(t, 0, Options{})
	body := []byte("<run/>") // never parsed: the gate holds every commit
	gate := make(chan struct{})
	blocked := ingest.New(func(jobs []*ingest.Job) []ingest.Result {
		<-gate
		return make([]ingest.Result, len(jobs))
	}, ingest.Options{QueueDepth: 1, BatchSize: 1})
	srv.ingest.Close()
	srv.ingest = blocked
	defer func() {
		close(gate)
		blocked.Close()
	}()

	var got429 *httptest.ResponseRecorder
	accepted := 0
	for i := 0; i < 5; i++ {
		rec := do(t, srv, "POST", "/v1/specs/pa/runs/bp?async=1", body, nil)
		switch rec.Code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			got429 = rec
		default:
			t.Fatalf("post %d = %d %q", i, rec.Code, rec.Body.String())
		}
	}
	if accepted == 0 {
		t.Error("no post was accepted before the queue filled")
	}
	if got429 == nil {
		t.Fatal("five posts against a one-deep gated queue never drew a 429")
	}
	wantEnvelope(t, got429, http.StatusTooManyRequests, "rate_limited")
	if got := got429.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
}

// TestEnvelope500CommitFault forces the storage side of a batched
// commit to fail (the ledger path is occupied by a directory, so the
// commit's ledger append fails): the document was valid, so the
// client gets the service's 500, not a 400 — and the run is not
// stored.
func TestEnvelope500CommitFault(t *testing.T) {
	dir := t.TempDir()
	srv, st := seedServerOn(t, fsBackend(t, dir), 1, Options{})
	body := encodeRun(t, st, 777)
	ledgerLog := filepath.Join(dir, "pa", "snapshot", "ledger.log")
	if err := os.Remove(ledgerLog); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(ledgerLog, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	rec := do(t, srv, "POST", "/v1/specs/pa/runs/evil500", body, nil)
	wantEnvelope(t, rec, http.StatusInternalServerError, "internal")
	if _, err := st.LoadRun("pa", "evil500"); err == nil {
		t.Fatal("a run whose commit failed is loadable")
	}
}

// TestEnvelope503AfterClose: a drained pipeline refuses new imports
// with 503/unavailable while reads keep answering.
func TestEnvelope503AfterClose(t *testing.T) {
	srv, st := seedServer(t, 2, Options{})
	body := encodeRun(t, st, 778)
	srv.Close()
	rec := do(t, srv, "POST", "/v1/specs/pa/runs/late", body, nil)
	wantEnvelope(t, rec, http.StatusServiceUnavailable, "unavailable")
	if rec := do(t, srv, "GET", "/v1/specs/pa/runs", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("read after Close = %d, want 200", rec.Code)
	}
}

// poisonedBody fails the test if anything reads it: boundary
// validation must reject bad names BEFORE touching the body.
type poisonedBody struct{ t *testing.T }

func (p poisonedBody) Read([]byte) (int, error) {
	p.t.Error("handler read the request body before validating names")
	return 0, io.EOF
}

// TestIngestBoundaryValidation pins the fix for the import-path
// asymmetry: both POST shapes (?name= and path value) validate the
// run name at the boundary, without reading the body.
func TestIngestBoundaryValidation(t *testing.T) {
	srv, _ := seedServer(t, 0, Options{})
	targets := []string{
		"/v1/specs/pa/runs?name=..%2Fevil",
		"/v1/specs/pa/runs/..%2Fevil",
		"/v1/specs/pa/runs",           // name missing entirely
		"/v1/specs/..%2Fevil/runs/ok", // spec side of the same boundary
	}
	for _, target := range targets {
		t.Run(target, func(t *testing.T) {
			req := httptest.NewRequest("POST", target, poisonedBody{t})
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			wantEnvelope(t, rec, http.StatusBadRequest, "bad_request")
		})
	}
}

// TestTicketRouteIsV1Only pins that the async ticket endpoint answers
// only under /v1, like every other route.
func TestTicketRouteIsV1Only(t *testing.T) {
	srv, _ := seedServer(t, 0, Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/tickets/tdeadbeef", nil))
	wantEnvelope(t, rec, http.StatusNotFound, "not_found")
}

// TestMuxRedirectPassesThrough: the mux's own path-cleaning redirect
// reaches the client unchanged; only its 404/405s become envelopes.
func TestMuxRedirectPassesThrough(t *testing.T) {
	srv, _ := seedServer(t, 0, Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1//specs", nil))
	if rec.Code != http.StatusMovedPermanently || rec.Header().Get("Location") != "/v1/specs" {
		t.Fatalf("GET /v1//specs = %d, Location %q; want 301 to /v1/specs", rec.Code, rec.Header().Get("Location"))
	}
}

// faultedServer seeds a 3-run repository, then serves it over a
// faultfs decorator with the spec's index already loaded.
func faultedServer(t *testing.T) (*Server, *faultfs.Backend) {
	t.Helper()
	dir := t.TempDir()
	seedServerOn(t, fsBackend(t, dir), 3, Options{})
	fb := faultfs.Wrap(fsBackend(t, dir))
	srv := New(store.OpenBackend(fb), Options{})
	t.Cleanup(srv.Close)
	if rec := do(t, srv, "GET", "/v1/specs/pa/runs", nil, nil); rec.Code != 200 {
		t.Fatalf("runs = %d %q", rec.Code, rec.Body.String())
	}
	return srv, fb
}

// listedRuns is the run list the server answers for spec pa.
func listedRuns(t *testing.T, srv *Server) string {
	t.Helper()
	var out struct{ Runs []string }
	if rec := do(t, srv, "GET", "/v1/specs/pa/runs", nil, &out); rec.Code != 200 {
		t.Fatalf("runs = %d %q", rec.Code, rec.Body.String())
	}
	return fmt.Sprint(out.Runs)
}

// TestStorageWriteFaultsAnswer500: a storage fault under a valid
// request is the service's failure, and changes nothing: a delete whose
// ledger append fails, and a sync import that cannot stat the segment
// it appends to, answer 500 internal and leave the run list as it was.
func TestStorageWriteFaultsAnswer500(t *testing.T) {
	srv, fb := faultedServer(t)
	fb.Fail(faultfs.Rule{Op: faultfs.OpAppend, KeySuffix: "ledger.log", N: 1, Mode: faultfs.ErrIO})
	wantEnvelope(t, do(t, srv, "DELETE", "/v1/specs/pa/runs/r0", nil, nil), http.StatusInternalServerError, "internal")
	if got := listedRuns(t, srv); got != "[r0 r1 r2]" {
		t.Fatalf("runs after a failed delete = %s", got)
	}

	srv, fb = faultedServer(t)
	fb.Fail(faultfs.Rule{Op: faultfs.OpStat, KeySuffix: "runs.seg", N: 1, Mode: faultfs.ErrIO})
	body := encodeRun(t, srv.st, 778)
	wantEnvelope(t, do(t, srv, "POST", "/v1/specs/pa/runs/x0", body, nil), http.StatusInternalServerError, "internal")
	if len(fb.Injected()) != 1 {
		t.Fatalf("faults fired: %v", fb.Injected())
	}
	fb.Clear()
	if got := listedRuns(t, srv); got != "[r0 r1 r2]" {
		t.Fatalf("runs after a failed import = %s", got)
	}
}

// TestListSpecsReadFaultAnswers500: a spec whose spec.xml cannot be
// stat'ed is not a missing spec, so /v1/specs answers 500, not an
// empty list.
func TestListSpecsReadFaultAnswers500(t *testing.T) {
	srv, fb := faultedServer(t)
	fb.Fail(faultfs.Rule{Op: faultfs.OpStat, KeySuffix: "spec.xml", N: 1, Mode: faultfs.ErrIO})
	wantEnvelope(t, do(t, srv, "GET", "/v1/specs", nil, nil), http.StatusInternalServerError, "internal")
}

// TestExportAbortsOnMidStreamFault: once the archive has started, a
// storage fault must not end it as a clean, shorter tar. A read fault
// on the second run aborts the response, so reading the body fails.
func TestExportAbortsOnMidStreamFault(t *testing.T) {
	srv, fb := faultedServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fb.Fail(faultfs.Rule{Op: faultfs.OpReadAt, KeySuffix: "runs.seg", N: 2, Mode: faultfs.ErrIO})
	resp, err := http.Get(ts.URL + "/v1/specs/pa/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("export under a mid-stream read fault = %d with a clean %d-byte body, want a transport error", resp.StatusCode, len(body))
	}
	if len(fb.Injected()) != 1 {
		t.Fatalf("faults fired: %v", fb.Injected())
	}
	if got := srv.Stats().Requests["export"]; got != 1 {
		t.Fatalf("aborted export counted %d times in the route's requests, want 1", got)
	}
}
