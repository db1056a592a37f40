package server

// Per-request stage timing. Every route is wrapped by instrument(),
// which parks a RequestTiming in the request context; handlers charge
// wall time to named stages through observeStage. The finished struct
// feeds the /metrics histograms and, when Options.OnRequestTiming is
// set (provserved -timing-log), a CSV sink — the flat shape exists so
// one request is one spreadsheet row.

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// RequestTiming is the flat per-request record: identity, outcome, and
// milliseconds charged to each pipeline stage. Stages a request never
// touches stay zero.
type RequestTiming struct {
	Route    string    // route table name, e.g. "diff"
	Method   string    // HTTP method
	Status   int       // response status code
	Start    time.Time // arrival time
	TotalMS  float64   // end-to-end handler time
	ParseMS  float64   // request-body read and decode (XML/JSON/events)
	DiffMS   float64   // differencing / drift computation
	CacheMS  float64   // result-cache lookups
	StoreMS  float64   // store reads/writes incl. ingest commit waits, less the batch's decode
	LedgerMS float64   // Merkle proof construction
}

// TimingCSVHeader is the column row matching CSVRow.
func TimingCSVHeader() string {
	return "start,route,method,status,total_ms,parse_ms,diff_ms,cache_ms,store_ms,ledger_ms"
}

// CSVRow renders the record as one CSV line (no trailing newline).
func (t *RequestTiming) CSVRow() string {
	return fmt.Sprintf("%s,%s,%s,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f",
		t.Start.UTC().Format(time.RFC3339Nano), t.Route, t.Method, t.Status,
		t.TotalMS, t.ParseMS, t.DiffMS, t.CacheMS, t.StoreMS, t.LedgerMS)
}

type timingKey struct{}

// timingFrom retrieves the request's timing record; nil when the
// request did not pass through instrument (tests calling handlers
// directly), so stage observation must stay nil-safe.
func timingFrom(ctx context.Context) *RequestTiming {
	t, _ := ctx.Value(timingKey{}).(*RequestTiming)
	return t
}

// Stage names accepted by observeStage.
const (
	stageParse  = "parse"
	stageDiff   = "diff"
	stageCache  = "cache"
	stageStore  = "store"
	stageLedger = "ledger"
)

// observeStage charges elapsed wall time since start to a stage. Usage:
//
//	t0 := time.Now()
//	... work ...
//	observeStage(r.Context(), stageDiff, t0)
//
// Handlers run on one goroutine per request, so no locking is needed.
func observeStage(ctx context.Context, stage string, start time.Time) {
	chargeStage(ctx, stage, time.Since(start))
}

// chargeStage charges a measured duration to a stage.
func chargeStage(ctx context.Context, stage string, d time.Duration) {
	t := timingFrom(ctx)
	if t == nil {
		return
	}
	ms := float64(d.Nanoseconds()) / 1e6
	switch stage {
	case stageParse:
		t.ParseMS += ms
	case stageDiff:
		t.DiffMS += ms
	case stageCache:
		t.CacheMS += ms
	case stageStore:
		t.StoreMS += ms
	case stageLedger:
		t.LedgerMS += ms
	}
}

// statusWriter captures the response status for the timing record. It
// forwards Flush (the NDJSON streaming handlers type-assert
// http.Flusher) and exposes Unwrap so http.NewResponseController can
// reach the per-write deadline support of the underlying writer.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with the timing shell: it stamps the
// route name, runs the handler with a context-carried RequestTiming,
// then folds the finished record into the metrics registry and the
// optional timing sink.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if mw, ok := w.(*muxErrorWriter); ok {
			w = mw.w // routed: the handler writes its own response
		}
		t := &RequestTiming{Route: route, Method: r.Method, Start: time.Now()}
		sw := &statusWriter{ResponseWriter: w}
		// Deferred so that a response aborted mid-stream
		// (http.ErrAbortHandler) is still counted.
		defer func() {
			t.Status = sw.status
			if t.Status == 0 {
				// Handler wrote nothing; net/http will send 200.
				t.Status = http.StatusOK
			}
			t.TotalMS = float64(time.Since(t.Start).Nanoseconds()) / 1e6
			s.metrics.observeRequest(t)
			if s.opts.OnRequestTiming != nil {
				s.opts.OnRequestTiming(t)
			}
		}()
		h(sw, r.WithContext(context.WithValue(r.Context(), timingKey{}, t)))
	}
}
