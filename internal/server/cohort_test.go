package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/store"
	"repro/internal/store/faultfs"
)

// TestCohortServedFromSharedCohort: /cohort answers from the cohort
// the analytics endpoints maintain. On a cohort grown by a bulk import,
// then single imports and a delete, a repeated /cohort and a /cohort
// after /nearest do no diffs, and the body equals a fresh full
// computation over the store: byte for byte under unit and length,
// within 1e-9 per cell under power:EPS (an incrementally added row is
// differenced new-versus-old, which may differ in the last bit).
func TestCohortServedFromSharedCohort(t *testing.T) {
	srv, st := seedServer(t, 0, Options{CacheSize: 16})
	archive, _ := bulkTar(t, st, 12, 5, "b")
	if rec := do(t, srv, "POST", "/v1/specs/pa/runs:bulk", archive, nil); rec.Code != 201 {
		t.Fatalf("bulk import = %d %q", rec.Code, rec.Body.String())
	}
	models := []struct {
		query string
		model cost.Model
		exact bool
	}{
		{"unit", cost.Unit{}, true},
		{"length", cost.Length{}, true},
		{"power:0.121", cost.Power{Epsilon: 0.121}, false},
	}
	cohort := func(query string) []byte {
		t.Helper()
		rec := do(t, srv, "GET", "/v1/specs/pa/cohort?cost="+query, nil, nil)
		if rec.Code != 200 {
			t.Fatalf("cohort ?cost=%s = %d %q", query, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	// /nearest builds the unit cohort; /cohort builds the other two.
	if rec := do(t, srv, "GET", "/v1/specs/pa/nearest?run=b0&k=2", nil, nil); rec.Code != 200 {
		t.Fatalf("nearest = %d %q", rec.Code, rec.Body.String())
	}
	for _, m := range models {
		cohort(m.query)
	}
	// Grow and shrink the cohorts incrementally.
	for i := 0; i < 3; i++ {
		target := fmt.Sprintf("/v1/specs/pa/runs/s%d", i)
		if rec := do(t, srv, "POST", target, encodeRun(t, st, int64(300+i)), nil); rec.Code != 201 {
			t.Fatalf("import %s = %d %q", target, rec.Code, rec.Body.String())
		}
		for _, m := range models {
			cohort(m.query)
		}
	}
	if rec := do(t, srv, "DELETE", "/v1/specs/pa/runs/b3", nil, nil); rec.Code != 200 {
		t.Fatalf("delete = %d %q", rec.Code, rec.Body.String())
	}
	if rec := do(t, srv, "GET", "/v1/specs/pa/nearest?run=b0&k=2", nil, nil); rec.Code != 200 {
		t.Fatalf("nearest = %d %q", rec.Code, rec.Body.String())
	}

	for _, m := range models {
		e := srv.cohorts.entry("pa", m.model)
		base := e.hc.DiffCalls()
		got := cohort(m.query)
		if again := cohort(m.query); string(again) != string(got) {
			t.Fatalf("%s: repeated /cohort answered differently", m.query)
		}
		if n := e.hc.DiffCalls() - base; n != 0 {
			t.Fatalf("%s: /cohort on a synced cohort did %d diffs, want 0", m.query, n)
		}
		if e.hc.Rebuilds() != 1 {
			t.Fatalf("%s: cohort rebuilt %d times, want only the initial build", m.query, e.hc.Rebuilds())
		}

		mx, err := st.Cohort("pa", nil, m.model)
		if err != nil {
			t.Fatal(err)
		}
		fresh := httptest.NewRecorder()
		writeJSON(fresh, cohortPayload{
			Spec:       "pa",
			Cost:       m.model.Name(),
			Labels:     mx.Labels,
			Matrix:     mx.D,
			Medoid:     mx.Labels[mx.Medoid()],
			Outlier:    mx.Labels[mx.Outlier()],
			Dendrogram: mx.Cluster().Render(),
		})
		if m.exact {
			if string(got) != fresh.Body.String() {
				t.Fatalf("%s: /cohort differs from a fresh computation:\n%s\nwant\n%s", m.query, got, fresh.Body.String())
			}
			continue
		}
		var p cohortPayload
		if err := json.Unmarshal(got, &p); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(p.Labels) != fmt.Sprint(mx.Labels) {
			t.Fatalf("%s: labels %v, want %v", m.query, p.Labels, mx.Labels)
		}
		for i := range mx.D {
			for j := range mx.D[i] {
				if d := math.Abs(p.Matrix[i][j] - mx.D[i][j]); d > 1e-9 {
					t.Fatalf("%s: cell (%d,%d) = %v, want %v", m.query, i, j, p.Matrix[i][j], mx.D[i][j])
				}
			}
		}
	}
}

// TestStatsRequestsMatchMetrics: /v1/stats.requests lists every route
// of the table, and each count equals the route's
// provdiff_requests_total summed over status classes.
func TestStatsRequestsMatchMetrics(t *testing.T) {
	srv, st := seedEvolveServer(t, 3, Options{CacheSize: 16})
	defer srv.Close()
	for _, target := range []string{
		"GET /v1/specs", "GET /v1/specs/pa/runs", "GET /v1/specs/nosuch/runs",
		"GET /v1/specs/pa/diff/r0/r1", "GET /v1/specs/pa/diff/r0/r1", "GET /v1/specs/pa/diff/r0/r1/svg",
		"GET /v1/specs/pa/cohort", "GET /v1/specs/pa/cluster?k=2", "GET /v1/specs/pa/outliers?k=1",
		"GET /v1/specs/pa/nearest?run=r0", "GET /v1/specs/pa/nearest", "GET /v1/specs/pa/evolve/pa-v2",
		"GET /v1/specs/pa/evolve/pa-v2/svg", "GET /v1/specs/pa/runs/r0/proof", "GET /v1/tickets/tnope",
		"GET /v1/healthz", "GET /v1/metrics", "GET /v1/specs/pa/export", "DELETE /v1/specs/pa/runs/r2",
		"GET /v1/no-such-route",
	} {
		var method, path string
		fmt.Sscan(target, &method, &path)
		do(t, srv, method, path, nil, nil)
	}
	do(t, srv, "POST", "/v1/specs/pa/runs/n1", encodeRun(t, st, 71), nil)
	do(t, srv, "POST", "/v1/specs/pa/runs?name=n2", encodeRun(t, st, 72), nil)
	do(t, srv, "PATCH", "/v1/specs/pa/runs/live0/events", []byte("[]"), nil)

	var stats statsPayload
	if rec := do(t, srv, "GET", "/v1/stats", nil, &stats); rec.Code != 200 {
		t.Fatalf("stats = %d", rec.Code)
	}
	// A request is counted when it finishes, so each snapshot misses
	// itself and the scrape also counts the /v1/stats call above.
	metrics := do(t, srv, "GET", "/v1/metrics", nil, nil).Body.String()
	fromMetrics := map[string]int64{}
	re := regexp.MustCompile(`(?m)^provdiff_requests_total\{route="([^"]+)",code="[0-9]xx"\} ([0-9]+)$`)
	for _, m := range re.FindAllStringSubmatch(metrics, -1) {
		n, _ := strconv.ParseInt(m[2], 10, 64)
		fromMetrics[m[1]] += n
	}
	fromMetrics["stats"]--
	for _, rt := range srv.routeTable() {
		got, ok := stats.Requests[rt.Name]
		if !ok {
			t.Errorf("stats.requests has no %q", rt.Name)
		}
		if got != fromMetrics[rt.Name] {
			t.Errorf("stats.requests[%q] = %d, metrics sum %d", rt.Name, got, fromMetrics[rt.Name])
		}
	}
	for name := range fromMetrics {
		if _, ok := stats.Requests[name]; !ok {
			t.Errorf("metrics count route %q, stats.requests does not", name)
		}
	}
	if stats.Requests["import"] != 2 || stats.Requests["diff"] != 2 || stats.Requests["bulk"] != 0 {
		t.Errorf("import/diff/bulk = %d/%d/%d, want 2/2/0", stats.Requests["import"], stats.Requests["diff"], stats.Requests["bulk"])
	}
}

// TestStorageDamageAnswers500: a run frame the store cannot read back
// is the repository's fault, so a diff over it answers 500 internal,
// not 400, with the store's message unchanged.
func TestStorageDamageAnswers500(t *testing.T) {
	dir := t.TempDir()
	seedServerAt(t, dir, 6, Options{})
	be, err := store.NewFSBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	fb := faultfs.Wrap(be)
	srv := New(store.OpenBackend(fb), Options{CacheSize: 16})
	fb.Fail(faultfs.Rule{Op: faultfs.OpReadAt, KeySuffix: "runs.seg", N: 1, Mode: faultfs.ErrIO})
	rec := do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1", nil, nil)
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("diff during a read fault = %d %q: %v", rec.Code, rec.Body.String(), err)
	}
	if rec.Code != 500 || env.Error.Code != "internal" || !strings.Contains(env.Error.Message, "injected fault") {
		t.Fatalf("diff during a read fault = %d %q, want 500 internal", rec.Code, rec.Body.String())
	}
	if len(fb.Injected()) != 1 {
		t.Fatalf("faults fired: %v", fb.Injected())
	}
}

// TestFailedCohortSyncRecovers: a cohort sync that fails midway — a
// frame read fault while a cold store loads the cohort — fails the
// request and retains nothing. Once the fault clears, every cohort
// route answers byte for byte what a fresh server over the same
// repository answers.
func TestFailedCohortSyncRecovers(t *testing.T) {
	dir := t.TempDir()
	seedServerAt(t, dir, 6, Options{})
	be, err := store.NewFSBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	fb := faultfs.Wrap(be)
	srv := New(store.OpenBackend(fb), Options{CacheSize: 16})
	fb.Fail(faultfs.Rule{Op: faultfs.OpReadAt, KeySuffix: "runs.seg", N: 3, Mode: faultfs.ErrIO})
	if rec := do(t, srv, "GET", "/v1/specs/pa/outliers?k=2", nil, nil); rec.Code != 500 {
		t.Fatalf("outliers during a read fault = %d %q, want 500", rec.Code, rec.Body.String())
	}
	if len(fb.Injected()) != 1 {
		t.Fatalf("faults fired: %v", fb.Injected())
	}
	fb.Clear()

	fresh, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	twin := New(fresh, Options{CacheSize: 16})
	for _, target := range []string{
		"/v1/specs/pa/outliers?k=2",
		"/v1/specs/pa/nearest?run=r0&k=3",
		"/v1/specs/pa/cluster?k=2",
		"/v1/specs/pa/cohort",
	} {
		got, want := do(t, srv, "GET", target, nil, nil), do(t, twin, "GET", target, nil, nil)
		if got.Code != 200 || want.Code != 200 || got.Body.String() != want.Body.String() {
			t.Fatalf("%s after the fault cleared = %d %q, fresh server = %d %q", target, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
	}
}
