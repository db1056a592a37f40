package server

// The service route table. Every route lives under /v1 in one scheme:
// each run-scoped resource hangs off its specification
// (/v1/specs/{spec}/diff/{a}/{b}). README.md documents the table, and
// TestREADMERouteTable keeps the two in step.

import "net/http"

// apiRoute is one row of the route table: the pattern under /v1, the
// route's stable short name and its handler.
type apiRoute struct {
	Method string
	Path   string // pattern under /v1, e.g. "/specs/{spec}/diff/{a}/{b}"
	Name   string // stable short name: the metrics route label, the /v1/stats.requests key and the CSV column value

	handler http.HandlerFunc
}

// routeTable enumerates every endpoint. Two rows may share a name
// (both import shapes count as "import").
func (s *Server) routeTable() []apiRoute {
	return []apiRoute{
		{"GET", "/specs", "specs", s.handleSpecs},
		{"GET", "/specs/{spec}/runs", "runs", s.handleRuns},
		{"POST", "/specs/{spec}/runs", "import", s.handleIngest},
		{"POST", "/specs/{spec}/runs/{run}", "import", s.handleIngest},
		{"POST", "/specs/{spec}/runs:bulk", "bulk", s.handleBulkImport},
		{"GET", "/specs/{spec}/export", "export", s.handleExport},
		{"DELETE", "/specs/{spec}/runs/{run}", "delete", s.handleDelete},
		{"GET", "/specs/{spec}/diff/{a}/{b}", "diff", s.handleDiff},
		{"GET", "/specs/{spec}/diff/{a}/{b}/svg", "diff_svg", s.handleDiffSVG},
		{"GET", "/specs/{spec}/cohort", "cohort", s.handleCohort},
		{"GET", "/specs/{a}/evolve/{b}", "evolve", s.handleEvolve},
		{"GET", "/specs/{a}/evolve/{b}/svg", "evolve_svg", s.handleEvolveSVG},
		{"GET", "/specs/{spec}/cluster", "cluster", s.handleCluster},
		{"GET", "/specs/{spec}/outliers", "outliers", s.handleOutliers},
		{"GET", "/specs/{spec}/nearest", "nearest", s.handleNearest},
		{"GET", "/specs/{spec}/runs/{run}/proof", "proof", s.handleProof},
		{"PATCH", "/specs/{spec}/runs/{run}/events", "live_events", s.handleLiveEvents},
		{"GET", "/specs/{spec}/watch", "watch", s.handleWatch},
		{"GET", "/tickets/{id}", "tickets", s.handleTicket},
		{"GET", "/metrics", "metrics", s.handleMetrics},
		{"GET", "/stats", "stats", s.handleStats},
		{"GET", "/healthz", "healthz", s.handleHealthz},
	}
}

// registerRoutes mounts every row under /v1, inside the timing shell,
// so /v1/metrics and /v1/stats see all traffic under the route's name.
func (s *Server) registerRoutes() {
	for _, rt := range s.routeTable() {
		s.metrics.addRoute(rt.Name)
		s.mux.HandleFunc(rt.Method+" /v1"+rt.Path, s.instrument(rt.Name, rt.handler))
	}
}
