package server

// A dependency-free Prometheus text-format (0.0.4) metrics registry.
// The request counters and latency histograms are fed by the timing
// middleware (timing.go); everything else is rendered on scrape from
// the same live counters /v1/stats reads, so the two surfaces can
// never disagree.

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond cache hits to multi-second cohort fan-outs.
var latencyBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5,
}

// histogram is a fixed-bucket latency histogram. Guarded by the
// registry mutex.
type histogram struct {
	counts []int64 // per-bucket (non-cumulative) observation counts
	sum    float64
	total  int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBuckets))}
}

func (h *histogram) observe(seconds float64) {
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += seconds
	h.total++
}

// metricsRegistry aggregates per-route request counts and latency
// distributions plus per-stage latency distributions. It is the only
// home of the request counts: /v1/stats sums them over status classes.
type metricsRegistry struct {
	mu       sync.Mutex
	routes   []string              // every route name, in route-table order
	requests map[[2]string]int64   // (route, status class "2xx") → count
	latency  map[string]*histogram // route → request duration
	stages   map[string]*histogram // stage → stage duration
}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{
		requests: make(map[[2]string]int64),
		latency:  make(map[string]*histogram),
		stages:   make(map[string]*histogram),
	}
}

// addRoute declares a route name, so /v1/stats lists it before its
// first request.
func (m *metricsRegistry) addRoute(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !slices.Contains(m.routes, name) {
		m.routes = append(m.routes, name)
	}
}

// requestCounts is /v1/stats.requests: every declared route's request
// count, summed over status classes.
func (m *metricsRegistry) requestCounts() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.routes))
	for _, name := range m.routes {
		out[name] = 0
	}
	for k, n := range m.requests {
		out[k[0]] += n
	}
	return out
}

// statusClasses are the status-class labels indexed by status/100, so
// observing a request formats nothing. net/http refuses status codes
// outside 100-999.
var statusClasses = [...]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx", "6xx", "7xx", "8xx", "9xx"}

// observeRequest folds one finished request into the registry. Stage
// histograms only record stages the request actually exercised.
func (m *metricsRegistry) observeRequest(t *RequestTiming) {
	class := statusClasses[t.Status/100]
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[[2]string{t.Route, class}]++
	h := m.latency[t.Route]
	if h == nil {
		h = newHistogram()
		m.latency[t.Route] = h
	}
	h.observe(t.TotalMS / 1e3)
	for stage, ms := range map[string]float64{
		"parse":  t.ParseMS,
		"diff":   t.DiffMS,
		"cache":  t.CacheMS,
		"store":  t.StoreMS,
		"ledger": t.LedgerMS,
	} {
		if ms <= 0 {
			continue
		}
		sh := m.stages[stage]
		if sh == nil {
			sh = newHistogram()
			m.stages[stage] = sh
		}
		sh.observe(ms / 1e3)
	}
}

// promWriter accumulates one exposition document.
type promWriter struct{ b strings.Builder }

func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) value(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(&p.b, "%s%s %g\n", name, labels, v)
}

func (p *promWriter) histogram(name, labels string, h *histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += h.counts[i]
		fmt.Fprintf(&p.b, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, ub, cum)
	}
	fmt.Fprintf(&p.b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.total)
	fmt.Fprintf(&p.b, "%s_sum{%s} %g\n", name, labels, h.sum)
	fmt.Fprintf(&p.b, "%s_count{%s} %d\n", name, labels, h.total)
}

// render produces the full exposition document against a stats
// snapshot taken by the caller.
func (m *metricsRegistry) render(st statsPayload, watchSubs int, watchDropped int64, liveRuns int) string {
	var p promWriter

	m.mu.Lock()
	p.family("provdiff_requests_total", "Requests served, by route and status class.", "counter")
	reqKeys := make([][2]string, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i][0] != reqKeys[j][0] {
			return reqKeys[i][0] < reqKeys[j][0]
		}
		return reqKeys[i][1] < reqKeys[j][1]
	})
	for _, k := range reqKeys {
		p.value("provdiff_requests_total", fmt.Sprintf("route=%q,code=%q", k[0], k[1]), float64(m.requests[k]))
	}

	p.family("provdiff_request_duration_seconds", "End-to-end request latency, by route.", "histogram")
	routes := make([]string, 0, len(m.latency))
	for r := range m.latency {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		p.histogram("provdiff_request_duration_seconds", fmt.Sprintf("route=%q", r), m.latency[r])
	}

	p.family("provdiff_stage_duration_seconds", "Request-stage latency (parse/diff/cache/store/ledger), over requests exercising the stage.", "histogram")
	stages := make([]string, 0, len(m.stages))
	for s := range m.stages {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		p.histogram("provdiff_stage_duration_seconds", fmt.Sprintf("stage=%q", s), m.stages[s])
	}
	m.mu.Unlock()

	counter := func(name, help string, v float64) {
		p.family(name, help, "counter")
		p.value(name, "", v)
	}
	gauge := func(name, help string, v float64) {
		p.family(name, help, "gauge")
		p.value(name, "", v)
	}

	counter("provdiff_errors_total", "Requests answered with an error envelope.", float64(st.Errors))
	gauge("provdiff_uptime_seconds", "Seconds since the server started.", st.UptimeSeconds)

	gauge("provdiff_cache_size", "Diff-result LRU entries currently cached.", float64(st.Cache.Size))
	gauge("provdiff_cache_capacity", "Diff-result LRU capacity.", float64(st.Cache.Capacity))
	counter("provdiff_cache_hits_total", "Diff-result LRU hits.", float64(st.Cache.Hits))
	counter("provdiff_cache_misses_total", "Diff-result LRU misses.", float64(st.Cache.Misses))
	counter("provdiff_cache_evictions_total", "Diff-result LRU evictions.", float64(st.Cache.Evictions))
	gauge("provdiff_cache_hit_ratio", "Diff-result LRU hit ratio since start.", st.Cache.HitRate)

	gauge("provdiff_ingest_queue_depth", "Group-commit ingest jobs currently queued.", float64(st.Ingest.QueueDepth))
	gauge("provdiff_ingest_queue_capacity", "Group-commit ingest queue bound.", float64(st.Ingest.QueueCapacity))
	gauge("provdiff_ingest_queue_high_water", "Deepest the ingest queue has been.", float64(st.Ingest.MaxDepth))
	counter("provdiff_ingest_enqueued_total", "Ingest jobs accepted onto the queue.", float64(st.Ingest.Enqueued))
	counter("provdiff_ingest_rejected_total", "Ingest jobs refused with queue-full.", float64(st.Ingest.Rejected))
	counter("provdiff_ingest_committed_total", "Ingest jobs committed.", float64(st.Ingest.Committed))
	counter("provdiff_ingest_failed_total", "Ingest jobs whose commit failed.", float64(st.Ingest.Failed))
	counter("provdiff_ingest_batches_total", "Group commits performed.", float64(st.Ingest.Batches))
	counter("provdiff_ingest_slow_commits_total", "Commits slower than the watchdog threshold.", float64(st.Ingest.SlowCommits))
	gauge("provdiff_ingest_tickets_pending", "Unresolved async ingest tickets.", float64(st.Ingest.TicketsPending))

	counter("provdiff_engine_gets_total", "Engine checkouts from the per-(spec,cost) pools.", float64(st.Engines.Gets))
	counter("provdiff_engine_news_total", "Engine checkouts that had to build a new engine.", float64(st.Engines.News))
	gauge("provdiff_engine_reuse_ratio", "Fraction of engine checkouts served from a pool.", st.Engines.ReuseRate)

	gauge("provdiff_cohort_matrices", "Cohort matrices/indexes currently maintained.", float64(st.CohortMatrices))
	gauge("provdiff_metricindex_indexed_cohorts", "Cohorts currently answered from the metric index.", float64(st.MetricIndex.IndexedCohorts))
	counter("provdiff_metricindex_exact_diffs_total", "Pairs exactly differenced by cohort maintenance and queries.", float64(st.MetricIndex.ExactDiffs))
	counter("provdiff_metricindex_pruned_pairs_total", "Pairs eliminated by a metric lower bound before the exact diff.", float64(st.MetricIndex.PrunedPairs))

	gauge("provdiff_live_runs", "Still-executing runs currently tracked.", float64(liveRuns))
	gauge("provdiff_watch_subscribers", "Clients currently attached to /watch streams.", float64(watchSubs))
	counter("provdiff_watch_dropped_total", "Drift updates dropped on slow watch subscribers.", float64(watchDropped))

	return p.b.String()
}

// handleMetrics serves the Prometheus exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	doc := s.metrics.render(s.Stats(), s.watch.subscribers(), s.watch.droppedCount(), s.st.LiveCount())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = fmt.Fprint(w, doc)
}
