// Package server exposes a provenance repository over HTTP/JSON — the
// long-running service counterpart of the provstore CLI. The paper
// frames provenance differencing as an interactive tool a scientist
// queries repeatedly against a growing repository of runs (Section
// VII); this package is the serving layer that makes those repeated
// queries cheap:
//
//   - engines are pooled per (specification, cost model), so the W_TG
//     memo and all flat scratch tables of core.Engine persist across
//     requests instead of being rebuilt per diff;
//   - finished diff payloads (JSON and SVG) live in a bounded LRU
//     keyed by (spec, runA, runB, cost) and answered only for the
//     content hashes they were computed from, so a re-imported or
//     deleted run can never be served a stale diff;
//   - one incrementally maintained distance matrix per (spec, cost
//     model) answers /cohort and the cohort analytics alike; its full
//     builds fan out over a worker pool and can stream per-pair
//     progress to the client as NDJSON;
//   - single-run imports flow through a group-commit pipeline
//     (internal/ingest): concurrent importers coalesce into one
//     segment append + one ledger append per batch, synchronously
//     (default) or async via tickets.
//
// Every route lives under /v1; README.md lists them (routes.go holds
// the table). Any other path answers 404. Errors everywhere use one
// JSON envelope, {"error":{"code":...,"message":...}} (see errors.go).
//
// The cohort endpoints share one incrementally maintained distance
// matrix per (spec, cost model): importing a run
// into an n-run cohort differences only the n new pairs, and a sync
// against the store's run hashes guarantees a stale row is never
// retained (see cohortcache.go).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/cost"
	"repro/internal/edit"
	"repro/internal/ingest"
	"repro/internal/store"
	"repro/internal/view"
	"repro/internal/wfrun"
)

// defaultMaxImportBytes bounds a POSTed run XML document unless
// Options.MaxImportBytes overrides it.
const defaultMaxImportBytes = 32 << 20

// progressWriteTimeout bounds each streamed NDJSON write; a client
// that stops reading gets its connection failed instead of stalling
// the cohort fan-out.
const progressWriteTimeout = 15 * time.Second

// Options configures a Server.
type Options struct {
	// CacheSize bounds the diff-result LRU in entries; <= 0 disables
	// result caching. DefaultCacheSize is a sensible service default.
	CacheSize int
	// IndexThreshold is the cohort size at which the analytics
	// endpoints switch from the dense distance matrix to the metric
	// index: 0 means analysis.DefaultIndexThreshold, negative disables
	// indexing (always dense).
	IndexThreshold int
	// IngestQueue bounds the group-commit queue; past it imports get
	// 429. <= 0 means ingest.DefaultQueueDepth.
	IngestQueue int
	// IngestBatch caps how many runs one pipeline commit carries;
	// <= 0 means ingest.DefaultBatchSize.
	IngestBatch int
	// MaxImportBytes bounds one run XML document; <= 0 means the
	// 32 MiB default.
	MaxImportBytes int64
	// TicketRetention bounds resolved async tickets kept for polling;
	// <= 0 means ingest.DefaultTicketRetention.
	TicketRetention int
	// OnRequestTiming, when set, receives every finished request's
	// stage-timing record after the handler returns (provserved wires
	// it to the -timing-log CSV sink). Must be safe for concurrent
	// calls; the record must not be retained past the call.
	OnRequestTiming func(*RequestTiming)
}

// DefaultCacheSize is the diff-result LRU capacity used by provserved
// unless overridden.
const DefaultCacheSize = 512

// Server serves a provenance repository over HTTP. It is safe for
// concurrent use; create it with New and mount it as an http.Handler.
// Call Close on shutdown to drain the ingest pipeline.
type Server struct {
	st      *store.Store
	pools   *enginePools
	cache   *resultCache
	cohorts *cohortCaches
	ingest  *ingest.Pipeline
	tickets *ingest.Registry
	opts    Options
	mux     *http.ServeMux
	started time.Time
	metrics *metricsRegistry
	watch   *watchHub

	// errCount counts error envelopes, including the mux's own
	// 404/405s, which reach no route.
	errCount atomic.Int64
}

// New builds a Server over an open store and registers its routes.
// Cached results are keyed by the run content and run-set versions
// they were computed from, so imports and deletions performed through
// any handle of the same Store are seen by the next request.
func New(st *store.Store, opts Options) *Server {
	s := &Server{
		st:      st,
		pools:   newEnginePools(),
		cache:   newResultCache(opts.CacheSize),
		cohorts: newCohortCaches(analysis.HybridOptions{IndexThreshold: opts.IndexThreshold}),
		tickets: ingest.NewRegistry(opts.TicketRetention),
		opts:    opts,
		mux:     http.NewServeMux(),
		started: time.Now(),
		metrics: newMetricsRegistry(),
		watch:   newWatchHub(),
	}
	s.ingest = s.newIngest()
	s.registerRoutes()
	return s
}

// ServeHTTP implements http.Handler. Responses the mux generates on
// its own — 404 for unknown paths, 405 for method mismatches — are
// rewritten into the uniform error envelope; requests that resolve to
// a registered route reach their handler untouched (instrument unwraps
// the rewriting writer).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(&muxErrorWriter{w: w, s: s}, r)
}

// maxImportBytes resolves the per-document size bound.
func (s *Server) maxImportBytes() int64 {
	if s.opts.MaxImportBytes > 0 {
		return s.opts.MaxImportBytes
	}
	return defaultMaxImportBytes
}

// names extracts and validates the named path values; a validation
// failure writes a 400 and returns false. Path values are decoded by
// the mux, so an encoded %2e%2e%2f arrives here as "../" and is
// rejected before it can reach the filesystem.
func (s *Server) names(w http.ResponseWriter, r *http.Request, keys ...string) ([]string, bool) {
	out := make([]string, len(keys))
	for i, k := range keys {
		v := r.PathValue(k)
		if err := store.ValidateName(v); err != nil {
			s.httpError(w, fmt.Errorf("%s: %w", k, err), http.StatusBadRequest)
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// writeJSON answers v as JSON. A value that does not encode (a NaN or
// an infinity) answers the 500 envelope, never an empty 2xx: Encode
// writes nothing when it fails, so a handler that left the status to
// writeJSON has sent nothing yet.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		s.httpError(w, fmt.Errorf("encode response: %w", err), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"ok":true}`+"\n")
}

// --- repository browsing -------------------------------------------

type specInfo struct {
	Name string `json:"name"`
	Runs int    `json:"runs"`
}

func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request) {
	names, err := s.st.ListSpecs()
	if err != nil {
		s.httpError(w, err, http.StatusInternalServerError)
		return
	}
	out := make([]specInfo, 0, len(names))
	for _, n := range names {
		runs, err := s.st.ListRuns(n)
		if err != nil {
			s.httpError(w, err, http.StatusInternalServerError)
			return
		}
		out = append(out, specInfo{Name: n, Runs: len(runs)})
	}
	s.writeJSON(w, map[string]any{"specs": out})
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "spec")
	if !ok {
		return
	}
	if _, err := s.st.LoadSpec(ns[0]); err != nil {
		s.storeError(w, err)
		return
	}
	runs, err := s.st.ListRuns(ns[0])
	if err != nil {
		s.httpError(w, err, http.StatusInternalServerError)
		return
	}
	if runs == nil {
		runs = []string{}
	}
	s.writeJSON(w, map[string]any{"spec": ns[0], "runs": runs})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "spec", "run")
	if !ok {
		return
	}
	t0 := time.Now()
	err := s.st.DeleteRun(ns[0], ns[1])
	observeStage(r.Context(), stageStore, t0)
	if err != nil {
		// The names passed the boundary check, so anything but a
		// missing run is the store's failure.
		code := http.StatusInternalServerError
		if storeStatus(err) == http.StatusNotFound {
			code = http.StatusNotFound
		}
		s.httpError(w, err, code)
		return
	}
	s.writeJSON(w, map[string]any{"deleted": ns[0] + "/" + ns[1]})
}

// --- differencing ---------------------------------------------------

type opJSON struct {
	Kind      string   `json:"kind"`
	Cost      float64  `json:"cost"`
	Length    int      `json:"length"`
	Path      []string `json:"path"`
	Labels    []string `json:"labels"`
	Loop      bool     `json:"loop,omitempty"`
	Temporary bool     `json:"temporary,omitempty"`
}

type diffPayload struct {
	Spec     string   `json:"spec"`
	RunA     string   `json:"run_a"`
	RunB     string   `json:"run_b"`
	Cost     string   `json:"cost"`
	Distance float64  `json:"distance"`
	OpCount  int      `json:"op_count"`
	Ops      []opJSON `json:"ops"`
	Cached   bool     `json:"cached"`
}

func scriptJSON(sc *edit.Script) []opJSON {
	out := make([]opJSON, len(sc.Ops))
	for i, op := range sc.Ops {
		out[i] = opJSON{
			Kind:      op.Kind.String(),
			Cost:      op.Cost,
			Length:    op.Length,
			Path:      op.PathNodes,
			Labels:    op.PathLabels,
			Loop:      op.LoopOp,
			Temporary: op.Temporary,
		}
	}
	return out
}

// loadPair loads the two runs of a pair artifact with the content
// hashes that key it: run a of specA and run b of specB.
func (s *Server) loadPair(ctx context.Context, specA, a, specB, b string) (*wfrun.Run, *wfrun.Run, inputs, error) {
	t0 := time.Now()
	defer observeStage(ctx, stageStore, t0)
	ra, hashA, err := s.st.LoadRunHash(specA, a)
	if err != nil {
		return nil, nil, inputs{}, err
	}
	rb, hashB, err := s.st.LoadRunHash(specB, b)
	if err != nil {
		return nil, nil, inputs{}, err
	}
	return ra, rb, inputs{hashA: hashA, hashB: hashB}, nil
}

// diffPair produces the JSON payload for one pair, through the cache.
// The engine is checked out only for the uncached computation and
// everything the payload needs is extracted before it is returned, so
// the pooled engine is immediately reusable.
func (s *Server) diffPair(ctx context.Context, specName, runA, runB string, m cost.Model) (diffPayload, error) {
	a, b, in, err := s.loadPair(ctx, specName, runA, specName, runB)
	if err != nil {
		return diffPayload{}, err
	}
	key := cacheKey{spec: specName, runA: runA, runB: runB, cost: m.Name(), kind: kindDiff}
	t0 := time.Now()
	v, ok := s.cache.get(key, in)
	observeStage(ctx, stageCache, t0)
	if ok {
		p := v.(diffPayload)
		p.Cached = true
		return p, nil
	}
	t0 = time.Now()
	defer func() { observeStage(ctx, stageDiff, t0) }()
	eng := s.pools.get(specName, m)
	defer s.pools.put(specName, m, eng)
	res, err := eng.Diff(a, b)
	if err != nil {
		return diffPayload{}, err
	}
	sc, _, err := res.Script()
	if err != nil {
		return diffPayload{}, err
	}
	p := diffPayload{
		Spec:     specName,
		RunA:     runA,
		RunB:     runB,
		Cost:     m.Name(),
		Distance: res.Distance,
		OpCount:  len(sc.Ops),
		Ops:      scriptJSON(sc),
	}
	s.cache.add(key, in, p)
	return p, nil
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "spec", "a", "b")
	if !ok {
		return
	}
	q := s.query(r)
	m := q.cost()
	across := q.optionalName("across")
	if !q.valid(w) {
		return
	}
	if across != "" {
		// Cross-version comparison: run b belongs to the
		// lineage-linked specification named by ?across=.
		s.crossDiff(w, r, ns[0], ns[1], ns[2], across, m)
		return
	}
	p, err := s.diffPair(r.Context(), ns[0], ns[1], ns[2], m)
	if err != nil {
		s.storeError(w, err)
		return
	}
	s.writeJSON(w, p)
}

// handleDiffSVG serves the PDiffView rendering — source and target
// runs side by side, deletions red, insertions green — as a
// standalone SVG image.
func (s *Server) handleDiffSVG(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "spec", "a", "b")
	if !ok {
		return
	}
	q := s.query(r)
	m := q.cost()
	if !q.valid(w) {
		return
	}
	r1, r2, in, err := s.loadPair(r.Context(), ns[0], ns[1], ns[0], ns[2])
	if err != nil {
		s.storeError(w, err)
		return
	}
	key := cacheKey{spec: ns[0], runA: ns[1], runB: ns[2], cost: m.Name(), kind: kindSVG}
	v, ok := s.cache.get(key, in)
	if !ok {
		eng := s.pools.get(ns[0], m)
		d, err := view.NewWith(eng, m, r1, r2)
		if err != nil {
			s.pools.put(ns[0], m, eng)
			s.storeError(w, err)
			return
		}
		v = d.PairSVG(ns[1], ns[2])
		s.pools.put(ns[0], m, eng)
		s.cache.add(key, in, v)
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	io.WriteString(w, v.(string))
}

// --- cohort ---------------------------------------------------------

type cohortPayload struct {
	Spec       string      `json:"spec"`
	Cost       string      `json:"cost"`
	Labels     []string    `json:"labels"`
	Matrix     [][]float64 `json:"matrix"`
	Medoid     string      `json:"medoid"`
	Outlier    string      `json:"outlier"`
	Dendrogram string      `json:"dendrogram"`
}

// handleCohort serves the pairwise distance matrix over all stored
// runs of a specification plus the UPGMA dendrogram, from the cohort
// the analytics endpoints share (cohortcache.go), ordered by run name
// like ListRuns. With ?stream=1 the response is NDJSON: progress
// objects while a full build of the cohort runs, then the final result
// object.
func (s *Server) handleCohort(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "spec")
	if !ok {
		return
	}
	q := s.query(r)
	m := q.cost()
	stream := q.flag("stream")
	if !q.valid(w) {
		return
	}
	if _, err := s.st.LoadSpec(ns[0]); err != nil {
		s.storeError(w, err)
		return
	}
	// The request context aborts a build when the client goes away
	// mid-stream (or the server shuts down): without it a disconnected
	// client would leave the workers differencing a matrix nobody will
	// read, with the progress callback writing into a dead connection.
	build := analysis.Options{Context: r.Context()}
	var rc *http.ResponseController
	if stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		rc = http.NewResponseController(w)
		enc := json.NewEncoder(w)
		var writeErr error
		// Serialized by the analysis package; the build holds the
		// cohort's locks while these fire. The per-write deadline keeps
		// a stalled client from parking the workers behind a full TCP
		// buffer, and after one failed write the rest are skipped.
		build.Progress = func(done, total int) {
			// Emit at most ~100 progress lines however large the cohort.
			if writeErr != nil || (done%max(1, total/100) != 0 && done != total) {
				return
			}
			rc.SetWriteDeadline(time.Now().Add(progressWriteTimeout))
			if writeErr = enc.Encode(map[string]any{"type": "progress", "done": done, "total": total}); writeErr == nil && flusher != nil {
				flusher.Flush()
			}
		}
	}
	mx, err := s.exactCohortMatrix(ns[0], m, build)
	switch {
	case err != nil && stream:
		// Status is already committed; report in-band.
		rc.SetWriteDeadline(time.Now().Add(progressWriteTimeout))
		json.NewEncoder(w).Encode(map[string]any{"type": "error", "error": err.Error()})
		return
	case err != nil:
		// The specification is known, so the repository failed.
		s.httpError(w, err, http.StatusInternalServerError)
		return
	case mx == nil || len(mx.Labels) < 2:
		// A cohort this small has no pairs, so nothing was streamed.
		s.httpError(w, fmt.Errorf("cohort of %q needs at least two stored runs", ns[0]), http.StatusBadRequest)
		return
	}
	mx = byName(mx)
	p := cohortPayload{
		Spec:       ns[0],
		Cost:       m.Name(),
		Labels:     mx.Labels,
		Matrix:     mx.D,
		Medoid:     mx.Labels[mx.Medoid()],
		Outlier:    mx.Labels[mx.Outlier()],
		Dendrogram: mx.Cluster().Render(),
	}
	if stream {
		rc.SetWriteDeadline(time.Now().Add(progressWriteTimeout))
		json.NewEncoder(w).Encode(map[string]any{"type": "result", "cohort": p})
		return
	}
	s.writeJSON(w, p)
}

// byName permutes a cohort matrix into run-name order. The shared
// cohort appends runs as they arrive; a full computation over ListRuns
// lays them out by name, and /cohort answers in that order.
func byName(mx *analysis.Matrix) *analysis.Matrix {
	if sort.StringsAreSorted(mx.Labels) {
		return mx
	}
	perm := make([]int, len(mx.Labels))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return mx.Labels[perm[a]] < mx.Labels[perm[b]] })
	out := &analysis.Matrix{Labels: make([]string, len(perm)), D: make([][]float64, len(perm))}
	for i, pi := range perm {
		out.Labels[i] = mx.Labels[pi]
		out.D[i] = make([]float64, len(perm))
		for j, pj := range perm {
			out.D[i][j] = mx.D[pi][pj]
		}
	}
	return out
}

// --- stats ----------------------------------------------------------

type engineStats struct {
	Pools     int     `json:"pools"`
	Gets      int64   `json:"gets"`
	News      int64   `json:"news"`
	Reused    int64   `json:"reused"`
	ReuseRate float64 `json:"reuse_rate"`
}

type metricIndexStats struct {
	// IndexedCohorts counts live cohorts currently answering from the
	// metric index rather than a dense matrix.
	IndexedCohorts int `json:"indexed_cohorts"`
	// ExactDiffs and PrunedPairs aggregate the cohorts' counters: how
	// many pairs were exactly differenced versus eliminated by a lower
	// bound, across maintenance and queries.
	ExactDiffs  int64 `json:"exact_diffs"`
	PrunedPairs int64 `json:"pruned_pairs"`
}

// ingestStats publishes the pipeline counters plus the ticket counts
// in /v1/stats; the slow-commit fields are the fsync watchdog (commits
// slower than the pipeline's threshold).
type ingestStats struct {
	ingest.Stats
	TicketsPending  int `json:"tickets_pending"`
	TicketsRetained int `json:"tickets_retained"`
}

// ledgerStats publishes the provenance ledger's commitments: every
// spec's chain head plus the repository root folded over them. A
// client holding a RunProof needs exactly this to anchor the proof.
type ledgerStats struct {
	RepoRoot string                      `json:"repo_root"`
	Specs    map[string]store.SpecLedger `json:"specs"`
}

// storageStats names the storage backend the repository runs on.
type storageStats struct {
	Backend string `json:"backend"`
}

type statsPayload struct {
	UptimeSeconds  float64          `json:"uptime_seconds"`
	Requests       map[string]int64 `json:"requests"`
	Errors         int64            `json:"errors"`
	Cache          cacheStats       `json:"cache"`
	Engines        engineStats      `json:"engines"`
	Ingest         ingestStats      `json:"ingest"`
	CohortMatrices int              `json:"cohort_matrices"`
	MetricIndex    metricIndexStats `json:"metric_index"`
	Ledger         ledgerStats      `json:"ledger"`
	Storage        storageStats     `json:"storage"`
}

// Stats snapshots the service counters (also served at /v1/stats).
func (s *Server) Stats() statsPayload {
	gets, news := s.pools.gets.Load(), s.pools.news.Load()
	es := engineStats{
		Pools:  s.pools.poolCount(),
		Gets:   gets,
		News:   news,
		Reused: gets - news,
	}
	if gets > 0 {
		es.ReuseRate = float64(es.Reused) / float64(gets)
	}
	var mi metricIndexStats
	for _, e := range s.cohorts.all() {
		if e.hc.Indexed() {
			mi.IndexedCohorts++
		}
		mi.ExactDiffs += e.hc.DiffCalls()
		mi.PrunedPairs += e.hc.PrunedPairs()
	}
	ig := ingestStats{Stats: s.ingest.Stats()}
	ig.TicketsPending, ig.TicketsRetained = s.tickets.Counts()
	ls := ledgerStats{Specs: map[string]store.SpecLedger{}}
	if heads, root, err := s.st.LedgerHeads(); err == nil {
		ls.RepoRoot, ls.Specs = root, heads
	}
	return statsPayload{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Requests:       s.metrics.requestCounts(),
		CohortMatrices: s.cohorts.count(),
		MetricIndex:    mi,
		Ingest:         ig,
		Ledger:         ls,
		Storage:        storageStats{Backend: s.st.BackendKind()},
		Errors:         s.errCount.Load(),
		Cache:          s.cache.snapshot(),
		Engines:        es,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.Stats())
}
