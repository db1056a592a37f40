package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// seedLiveServer is seedServer with the store directory exposed, so a
// test can reopen the repository from scratch and compare answers.
func seedLiveServer(tb testing.TB, n int, opts Options) (*Server, *store.Store, string) {
	tb.Helper()
	dir := tb.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
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
	return New(st, opts), st, dir
}

func eventBody(tb testing.TB, evs ...wfrun.Event) []byte {
	tb.Helper()
	b, err := json.Marshal(evs)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestLiveDriftE2E is the acceptance path: a run is ingested
// event-by-event, every append's drift score is monotone and mirrored
// on the watch stream, and after completion the stored run diffs
// byte-identically to the same repository reopened from scratch.
func TestLiveDriftE2E(t *testing.T) {
	srv, st, dir := seedLiveServer(t, 3, Options{CacheSize: 32})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	sp, err := st.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	run, err := gen.RandomRun(sp, gen.DefaultRunParams(), rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	evs := wfrun.Events(run)
	if len(evs) < 4 {
		t.Fatalf("degenerate run: %d events", len(evs))
	}

	// Attach a watcher before the first event.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wreq, _ := http.NewRequestWithContext(ctx, "GET", hs.URL+"/v1/specs/pa/watch", nil)
	wresp, err := http.DefaultClient.Do(wreq)
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if ct := wresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type = %q", ct)
	}
	stream := bufio.NewReader(wresp.Body)
	var hello struct {
		Type string   `json:"type"`
		Live []string `json:"live"`
	}
	line, err := stream.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &hello); err != nil || hello.Type != "hello" {
		t.Fatalf("hello line = %q (%v)", line, err)
	}

	patch := func(url string, body []byte) liveEventsPayload {
		t.Helper()
		req, _ := http.NewRequest("PATCH", url, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var p liveEventsPayload
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("PATCH %s = %d", url, resp.StatusCode)
		}
		return p
	}
	readDrift := func() driftUpdate {
		t.Helper()
		for {
			line, err := stream.ReadBytes('\n')
			if err != nil {
				t.Fatalf("watch stream: %v", err)
			}
			var u driftUpdate
			if err := json.Unmarshal(line, &u); err != nil {
				t.Fatalf("watch line %q: %v", line, err)
			}
			if u.Type == "drift" {
				return u
			}
		}
	}

	url := hs.URL + "/v1/specs/pa/runs/live1/events"
	last := -1.0
	for i, ev := range evs {
		p := patch(url, eventBody(t, ev))
		if p.Events != i+1 {
			t.Fatalf("after event %d: status.Events = %d", i, p.Events)
		}
		if p.Drift.Score < last {
			t.Fatalf("drift regressed at event %d: %v < %v", i, p.Drift.Score, last)
		}
		last = p.Drift.Score
		u := readDrift()
		if u.Score != p.Drift.Score || u.Run != "live1" || u.Events != p.Events {
			t.Fatalf("watch update %+v != response drift %+v", u, p.Drift)
		}
	}

	// Complete with an empty body: the final update carries the exact
	// distance, which can only confirm or raise the running bound.
	p := patch(url+"?complete=1", nil)
	if !p.Completed || !p.Drift.Final {
		t.Fatalf("completion payload = %+v", p)
	}
	if p.Drift.Score < last {
		t.Fatalf("final exact distance %v below last bound %v", p.Drift.Score, last)
	}
	if u := readDrift(); !u.Final || u.Score != p.Drift.Score {
		t.Fatalf("final watch update = %+v", u)
	}
	cancel()

	// The live run is now a regular stored run; its diff against every
	// seeded run must be byte-identical when the repository is reopened
	// from scratch by an unrelated server.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(st2, Options{CacheSize: 32})
	defer srv2.Close()
	for i := 0; i < 3; i++ {
		path := fmt.Sprintf("/v1/specs/pa/diff/live1/r%d", i)
		a := do(t, srv, "GET", path, nil, nil)
		b := do(t, srv2, "GET", path, nil, nil)
		if a.Code != 200 || b.Code != 200 {
			t.Fatalf("diff %s = %d / %d", path, a.Code, b.Code)
		}
		// The warm server may answer from cache ("cached":true); strip
		// the flag before comparing.
		norm := func(s string) string { return strings.ReplaceAll(s, `"cached":true`, `"cached":false`) }
		if norm(a.Body.String()) != norm(b.Body.String()) {
			t.Fatalf("diff %s differs between live-completed and reopened store:\n%s\nvs\n%s", path, a.Body.String(), b.Body.String())
		}
	}

	// Appending to the completed name conflicts.
	req, _ := http.NewRequest("PATCH", url, bytes.NewReader(eventBody(t, evs[0])))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("append to completed run = %d, want 409", resp.StatusCode)
	}
}

// settleGoroutines waits for the goroutine count to drop back to (or
// below) the baseline plus slack.
func settleGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle: %d > %d+%d\n%s", n, base, slack, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStreamingDisconnectReleasesGoroutines drops clients mid-stream on
// both NDJSON routes — watch and cohort — and asserts the handler
// goroutines unwind instead of leaking. Run under -race in CI.
func TestStreamingDisconnectReleasesGoroutines(t *testing.T) {
	srv, st, _ := seedLiveServer(t, 4, Options{CacheSize: 32})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	base := runtime.NumGoroutine()

	// Watch: the handler parks in its select until the context fires.
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, "GET", hs.URL+"/v1/specs/pa/watch", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// Read the hello line so the handler is known to be streaming.
		if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
			t.Fatal(err)
		}
		cancel()
		resp.Body.Close()
	}
	settleGoroutines(t, base, 2)
	if n := srv.watch.subscribers(); n != 0 {
		t.Fatalf("watch subscribers after disconnects = %d, want 0", n)
	}

	// Cohort stream: disconnect mid-fan-out; the analysis context must
	// abort the workers.
	sp, err := st.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 8; i++ {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SaveRun("pa", fmt.Sprintf("c%d", i), r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, "GET", hs.URL+"/v1/specs/pa/cohort?stream=1", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		resp.Body.Close()
	}
	settleGoroutines(t, base, 2)
}

// TestMetricsEndpoint scrapes /metrics after mixed traffic and checks
// the exposition parses: families declared once, histogram buckets
// cumulative and consistent with their _count, key series present.
func TestMetricsEndpoint(t *testing.T) {
	srv, _, _ := seedLiveServer(t, 3, Options{CacheSize: 16})
	defer srv.Close()
	do(t, srv, "GET", "/v1/specs", nil, nil)
	do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1", nil, nil)
	do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1", nil, nil) // cache hit
	do(t, srv, "GET", "/v1/specs/missing/runs", nil, nil)  // 404

	rec := do(t, srv, "GET", "/v1/metrics", nil, nil)
	if rec.Code != 200 {
		t.Fatalf("metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}

	help := make(map[string]int)
	types := make(map[string]string)
	var bucketCum float64
	var lastHist string
	for _, line := range strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.Fields(line)[2]
			help[name]++
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			types[f[2]] = f[3]
			continue
		}
		// Sample line: name{labels} value — value must parse.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			series := line[:sp] // includes labels minus le
			series = series[:strings.LastIndex(series, "le=")]
			if series != lastHist {
				lastHist, bucketCum = series, 0
			}
			if v < bucketCum {
				t.Fatalf("bucket counts not cumulative at %q: %v < %v", line, v, bucketCum)
			}
			bucketCum = v
		case strings.HasSuffix(name, "_count") && strings.HasPrefix(line, lastHist[:strings.IndexByte(lastHist, '{')]):
			if v != bucketCum {
				t.Fatalf("_count %v != +Inf bucket %v at %q", v, bucketCum, line)
			}
		}
	}
	for name, n := range help {
		if n != 1 {
			t.Fatalf("family %s declared %d times", name, n)
		}
		if types[name] == "" {
			t.Fatalf("family %s has HELP but no TYPE", name)
		}
	}
	for _, want := range []string{
		"provdiff_requests_total", "provdiff_request_duration_seconds",
		"provdiff_stage_duration_seconds", "provdiff_errors_total",
		"provdiff_cache_hits_total", "provdiff_ingest_queue_depth",
		"provdiff_ingest_queue_high_water", "provdiff_live_runs",
		"provdiff_watch_subscribers", "provdiff_metricindex_pruned_pairs_total",
	} {
		if help[want] != 1 {
			t.Fatalf("family %s missing from exposition", want)
		}
	}
	// The 404 and the diffs must be visible per route and status class.
	body := rec.Body.String()
	for _, want := range []string{
		`provdiff_requests_total{route="diff",code="2xx"} 2`,
		`provdiff_requests_total{route="runs",code="4xx"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

// TestRequestTimingHook checks the per-request stage-timing records:
// route names, status codes, stage attribution, and the CSV shape.
func TestRequestTimingHook(t *testing.T) {
	var mu = make(chan *RequestTiming, 16)
	srv, _, _ := seedLiveServer(t, 2, Options{
		CacheSize:       16,
		OnRequestTiming: func(rt *RequestTiming) { mu <- rt },
	})
	defer srv.Close()

	do(t, srv, "GET", "/v1/specs/pa/diff/r0/r1", nil, nil)
	rt := <-mu
	if rt.Route != "diff" || rt.Method != "GET" || rt.Status != 200 {
		t.Fatalf("timing record = %+v", rt)
	}
	if rt.TotalMS <= 0 || rt.DiffMS <= 0 {
		t.Fatalf("diff request charged no time: %+v", rt)
	}
	row := rt.CSVRow()
	if n := strings.Count(row, ","); n != strings.Count(TimingCSVHeader(), ",") {
		t.Fatalf("CSV row has %d commas, header %d: %q", n, strings.Count(TimingCSVHeader(), ","), row)
	}

	do(t, srv, "GET", "/v1/specs/missing/runs", nil, nil)
	rt = <-mu
	if rt.Route != "runs" || rt.Status != 404 {
		t.Fatalf("404 timing record = %+v", rt)
	}
}

// TestSyncImportChargesDecodeToParse checks that a sync import's
// timing record charges the batch's decode of its document to parse,
// not to the commit wait it happens in, and that parse and store
// still fit within the handler's total.
func TestSyncImportChargesDecodeToParse(t *testing.T) {
	timings := make(chan RequestTiming, 16)
	srv, st, _ := seedLiveServer(t, 1, Options{
		CacheSize:       16,
		OnRequestTiming: func(rt *RequestTiming) { timings <- *rt },
	})
	defer srv.Close()
	sp, err := st.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	big := gen.RunParams{ProbP: 1, ProbF: 1, MaxF: 12, ProbL: 1, MaxL: 12}
	run, err := gen.RandomRun(sp, big, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := wfxml.EncodeRun(&doc, run, "big"); err != nil {
		t.Fatal(err)
	}
	decodeMS := math.Inf(1)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := wfxml.DecodeRun(bytes.NewReader(doc.Bytes()), sp); err != nil {
			t.Fatal(err)
		}
		decodeMS = min(decodeMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	if rec := do(t, srv, "POST", "/v1/specs/pa/runs/big", doc.Bytes(), nil); rec.Code != http.StatusCreated {
		t.Fatalf("POST = %d %q", rec.Code, rec.Body.String())
	}
	rt := <-timings
	if rt.Route != "import" {
		t.Fatalf("timing record = %+v", rt)
	}
	// The server decodes the same document once more; half the
	// fastest local decode leaves room for scheduling noise, while the
	// body read alone is orders of magnitude shorter.
	if rt.ParseMS < decodeMS/2 {
		t.Fatalf("parse charged %.3f ms; decoding the document takes %.3f ms: %+v", rt.ParseMS, decodeMS, rt)
	}
	if rt.ParseMS+rt.StoreMS > rt.TotalMS {
		t.Fatalf("parse %.3f + store %.3f ms exceed the %.3f ms total: %+v", rt.ParseMS, rt.StoreMS, rt.TotalMS, rt)
	}
}

// TestLiveCompletionStagesWithinTotal checks that a completing PATCH
// charges each stage once: its stage times never add up to more than
// the handler's total. The completion diff runs through diffPair,
// which charges cache and diff itself.
func TestLiveCompletionStagesWithinTotal(t *testing.T) {
	timings := make(chan RequestTiming, 64)
	srv, st, _ := seedLiveServer(t, 3, Options{
		CacheSize:       16,
		OnRequestTiming: func(rt *RequestTiming) { timings <- *rt },
	})
	defer srv.Close()
	sp, err := st.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	// Build the baseline cohort first, so the completing request's
	// unstaged time is small and a double charge shows.
	if rec := do(t, srv, "GET", "/v1/specs/pa/nearest?run=r0&k=1", nil, nil); rec.Code != 200 {
		t.Fatalf("nearest = %d %q", rec.Code, rec.Body.String())
	}
	<-timings
	for i := 0; i < 3; i++ {
		run, err := gen.RandomRun(sp, gen.DefaultRunParams(), rand.New(rand.NewSource(int64(40+i))))
		if err != nil {
			t.Fatal(err)
		}
		target := fmt.Sprintf("/v1/specs/pa/runs/done%d/events?complete=1", i)
		if rec := do(t, srv, "PATCH", target, eventBody(t, wfrun.Events(run)...), nil); rec.Code != 200 {
			t.Fatalf("PATCH %s = %d %q", target, rec.Code, rec.Body.String())
		}
		rt := <-timings
		if rt.Route != "live_events" || rt.DiffMS <= 0 {
			t.Fatalf("completion timing = %+v", rt)
		}
		if sum := rt.ParseMS + rt.DiffMS + rt.CacheMS + rt.StoreMS + rt.LedgerMS; sum > rt.TotalMS {
			t.Fatalf("stages sum to %.3f ms, above the %.3f ms total: %+v", sum, rt.TotalMS, rt)
		}
	}
}
