package main

// Tracing from outside the program. A traced run wraps three public
// seams and records a span at each boundary it can see:
//
//   - the client: one span per op and one per HTTP request;
//   - the server: a handler wrapper (span "server.serve") and
//     server.Options.OnRequestTiming (span "server.handler.<route>",
//     carrying the server's own stage split);
//   - the store: a store.Backend decorator timing and counting every
//     blob call, classified by key.
//
// The request span id travels to the server in a header. Server-side
// records have no request handle, so they are tied to the serving
// handler by goroutine: net/http runs the wrapper, the route handler,
// the timing hook and any backend call the handler makes inline on
// one goroutine. Backend calls made on other goroutines (the ingest
// batcher, cohort workers) become root spans.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// spanHeader carries the client's request span id to the server.
const spanHeader = "X-Bench-Span"

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type serveCtx struct{ id, parent uint64 }

type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span

	serving sync.Map // goroutine id → serveCtx
	timings sync.Map // request span id → server.RequestTiming
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) record(id, parent uint64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// goid parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	b := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// wrap is the server-side handler wrapper.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		sc := serveCtx{id: t.newID(), parent: parent}
		g := goid()
		t.serving.Store(g, sc)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.serving.Delete(g)
		t.record(sc.id, sc.parent, "server.serve", start, time.Now())
	})
}

// onTiming is the server.Options.OnRequestTiming hook.
func (t *tracer) onTiming(rt *server.RequestTiming) {
	v, ok := t.serving.Load(goid())
	if !ok {
		return
	}
	sc := v.(serveCtx)
	end := rt.Start.Add(time.Duration(rt.TotalMS * 1e6))
	t.record(t.newID(), sc.id, "server.handler."+rt.Route, rt.Start, end)
	t.timings.Store(sc.parent, *rt)
}

// parentOnThisGoroutine is the serve span of the handler running on
// the calling goroutine, 0 when none is.
func (t *tracer) parentOnThisGoroutine() uint64 {
	if v, ok := t.serving.Load(goid()); ok {
		return v.(serveCtx).id
	}
	return 0
}

// timing returns the server's record for a client request span.
func (t *tracer) timing(reqSpan uint64) (server.RequestTiming, bool) {
	v, ok := t.timings.Load(reqSpan)
	if !ok {
		return server.RequestTiming{}, false
	}
	return v.(server.RequestTiming), true
}

// writeSpans writes every span as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// --- store.Backend decorator -----------------------------------------

// blobKinds are the classes of keys the store writes, in report order.
var blobKinds = []string{"segment", "manifest", "ledger", "run_xml", "live", "other"}

// blobKind classifies a backend key by the store's layout.
func blobKind(key string) string {
	switch {
	case strings.HasSuffix(key, "/snapshot/runs.seg"):
		return "segment"
	case strings.HasSuffix(key, "/snapshot/manifest.json"):
		return "manifest"
	case strings.HasSuffix(key, "/snapshot/ledger.log"):
		return "ledger"
	case strings.Contains(key, "/runs/") && strings.HasSuffix(key, ".xml"):
		return "run_xml"
	case strings.Contains(key, "/live/"):
		return "live"
	}
	return "other"
}

// blobCounters accumulate one key class.
type blobCounters struct {
	Calls         int64
	BusyNS        int64
	BytesRead     int64
	BytesWritten  int64
	Writes        int64 // WriteFile calls
	SyncedAppends int64
}

// tracedBackend times and counts every call into the wrapped backend.
type tracedBackend struct {
	store.Backend
	t *tracer

	mu     sync.Mutex
	counts map[string]*blobCounters
}

func newTracedBackend(be store.Backend, t *tracer) *tracedBackend {
	tb := &tracedBackend{Backend: be, t: t, counts: map[string]*blobCounters{}}
	for _, k := range blobKinds {
		tb.counts[k] = &blobCounters{}
	}
	return tb
}

// snapshot copies the counters; nil on an untraced run.
func (b *tracedBackend) snapshot() map[string]blobCounters {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]blobCounters, len(b.counts))
	for k, c := range b.counts {
		out[k] = *c
	}
	return out
}

func (b *tracedBackend) observe(op, key string, start time.Time, read, written int, write, synced bool) {
	end := time.Now()
	kind := blobKind(key)
	b.mu.Lock()
	c := b.counts[kind]
	c.Calls++
	c.BusyNS += end.Sub(start).Nanoseconds()
	c.BytesRead += int64(read)
	c.BytesWritten += int64(written)
	if write {
		c.Writes++
	}
	if synced {
		c.SyncedAppends++
	}
	b.mu.Unlock()
	b.t.record(b.t.newID(), b.t.parentOnThisGoroutine(), "store."+kind+"."+op, start, end)
}

func (b *tracedBackend) ReadFile(key string) ([]byte, error) {
	t0 := time.Now()
	data, err := b.Backend.ReadFile(key)
	b.observe("read", key, t0, len(data), 0, false, false)
	return data, err
}

func (b *tracedBackend) WriteFile(key string, data []byte) error {
	t0 := time.Now()
	err := b.Backend.WriteFile(key, data)
	b.observe("write", key, t0, 0, len(data), true, false)
	return err
}

func (b *tracedBackend) Append(key string, data []byte, sync bool) error {
	t0 := time.Now()
	err := b.Backend.Append(key, data, sync)
	b.observe("append", key, t0, 0, len(data), false, sync)
	return err
}

func (b *tracedBackend) ReadAt(key string, p []byte, off int64) error {
	t0 := time.Now()
	err := b.Backend.ReadAt(key, p, off)
	b.observe("read_at", key, t0, len(p), 0, false, false)
	return err
}

func (b *tracedBackend) Stat(key string) (store.BlobInfo, error) {
	t0 := time.Now()
	info, err := b.Backend.Stat(key)
	b.observe("stat", key, t0, 0, 0, false, false)
	return info, err
}

func (b *tracedBackend) List(dir string) ([]store.Entry, error) {
	t0 := time.Now()
	entries, err := b.Backend.List(dir)
	b.observe("list", dir+"/", t0, 0, 0, false, false)
	return entries, err
}

func (b *tracedBackend) Remove(key string) error {
	t0 := time.Now()
	err := b.Backend.Remove(key)
	b.observe("remove", key, t0, 0, 0, false, false)
	return err
}
