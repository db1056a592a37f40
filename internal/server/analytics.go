package server

// Cohort analytics handlers: k-medoids clustering, knn outlier
// scoring and nearest-neighbor queries over the incrementally
// maintained per-spec cohort (cohortcache.go). Each handler asks the
// cohort's analysis.CohortView, which picks the representation: small
// cohorts answer from the dense distance matrix; cohorts past the
// index threshold answer from the metric index, where triangle and
// histogram lower bounds prune most exact diffs — byte-identically for
// nearest and outliers, and via sampled k-medoids for clustering.
// ?exact=1 forces the dense-matrix path at any size (a one-shot O(n²)
// fan-out when the cohort is indexed), without changing any cache key
// the normal path uses — exact responses simply bypass the result LRU.

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/analysis"
	"repro/internal/cost"
)

// cohortViewFor resolves the synced cohort view for an analytics
// request, with the run-set version it reflects, writing the error
// response itself on failure. The specification is known once the
// sync starts, so a failed sync is the repository's fault (500), not
// the caller's. minRuns guards the degenerate cohorts each endpoint
// cannot answer on. With exact set, an index-backed cohort is replaced
// by a one-shot dense matrix bound to the request context. The sync
// and any one-shot matrix are charged to the diff stage.
func (s *Server) cohortViewFor(w http.ResponseWriter, r *http.Request, specName string, m cost.Model, minRuns int, exact bool) (*analysis.CohortView, inputs, bool) {
	if _, err := s.st.LoadSpec(specName); err != nil {
		s.storeError(w, err)
		return nil, inputs{}, false
	}
	t0 := time.Now()
	v, version, err := s.cohortView(specName, m, analysis.Options{})
	observeStage(r.Context(), stageDiff, t0)
	if err != nil {
		s.httpError(w, err, http.StatusInternalServerError)
		return nil, inputs{}, false
	}
	if v.Len() < minRuns {
		s.httpError(w, fmt.Errorf("cohort analytics on %q needs at least %d stored runs, have %d", specName, minRuns, v.Len()), http.StatusBadRequest)
		return nil, inputs{}, false
	}
	if exact && v.Indexed() {
		t0 = time.Now()
		mx, err := s.exactCohortMatrix(specName, m, analysis.Options{Context: r.Context()})
		observeStage(r.Context(), stageDiff, t0)
		if err != nil {
			s.httpError(w, err, http.StatusInternalServerError)
			return nil, inputs{}, false
		}
		v = analysis.DenseView(mx)
	}
	return v, inputs{version: version}, true
}

// cachedCohortAnswer looks up a cohort-scoped artifact at the spec's
// current run-set version; exact requests bypass the cache.
func (s *Server) cachedCohortAnswer(specName string, key cacheKey, exact bool) (any, bool) {
	if exact {
		return nil, false
	}
	return s.cache.get(key, inputs{version: s.st.RunsVersion(specName)})
}

type clusterGroup struct {
	Medoid string   `json:"medoid"`
	Runs   []string `json:"runs"`
}

type clusterPayload struct {
	Spec       string         `json:"spec"`
	Cost       string         `json:"cost"`
	K          int            `json:"k"`
	Seed       int64          `json:"seed"`
	Clusters   []clusterGroup `json:"clusters"`
	Cost_      float64        `json:"total_distance"`
	Silhouette float64        `json:"silhouette"`
	Iterations int            `json:"iterations"`
	Indexed    bool           `json:"indexed,omitempty"`
	Cached     bool           `json:"cached"`
}

// handleCluster partitions the spec's stored runs into k clusters by
// PAM over the edit-distance matrix — sampled k-medoids once the
// cohort answers from the metric index (silhouette is then 0; pass
// ?exact=1 for full PAM at any size). The medoid of each cluster is
// its most representative execution — the paper's notion of a
// "typical" run generalized from the whole cohort to each behavioral
// group.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "spec")
	if !ok {
		return
	}
	q := s.query(r)
	m := q.cost()
	k := q.intVal("k", 2)
	seed := q.seed()
	exact := q.flag("exact")
	if !q.valid(w) {
		return
	}
	key := cacheKey{spec: ns[0], runA: fmt.Sprintf("k=%d", k), runB: fmt.Sprintf("seed=%d", seed), cost: m.Name(), kind: kindCluster}
	if v, ok := s.cachedCohortAnswer(ns[0], key, exact); ok {
		p := v.(clusterPayload)
		p.Cached = true
		s.writeJSON(w, p)
		return
	}
	v, in, ok := s.cohortViewFor(w, r, ns[0], m, 2, exact)
	if !ok {
		return
	}
	t0 := time.Now()
	cl, err := v.Cluster(r.Context(), k, seed)
	observeStage(r.Context(), stageDiff, t0)
	if err != nil {
		s.httpError(w, err, http.StatusBadRequest)
		return
	}
	groups := make([]clusterGroup, cl.K)
	for c := 0; c < cl.K; c++ {
		groups[c].Medoid = v.Label(cl.Medoids[c])
		for _, i := range cl.Members(c) {
			groups[c].Runs = append(groups[c].Runs, v.Label(i))
		}
	}
	p := clusterPayload{
		Spec:       ns[0],
		Cost:       m.Name(),
		K:          cl.K,
		Seed:       seed,
		Clusters:   groups,
		Cost_:      cl.Cost,
		Silhouette: cl.Silhouette,
		Iterations: cl.Iterations,
		Indexed:    v.Indexed(),
	}
	if !exact {
		s.cache.add(key, in, p)
	}
	s.writeJSON(w, p)
}

type outlierJSON struct {
	Run     string  `json:"run"`
	Score   float64 `json:"score"`
	MeanAll float64 `json:"mean_all,omitempty"`
}

type outliersPayload struct {
	Spec      string        `json:"spec"`
	Cost      string        `json:"cost"`
	Neighbors int           `json:"neighbors"`
	Outliers  []outlierJSON `json:"outliers"`
	Indexed   bool          `json:"indexed,omitempty"`
	Cached    bool          `json:"cached"`
}

// handleOutliers scores every stored run by its mean edit distance to
// its k nearest cohort members, most anomalous first. Indexed cohorts
// produce byte-identical scores and order; only the contextual
// mean_all field is omitted (it would force every pairwise diff —
// pass ?exact=1 to get it back).
func (s *Server) handleOutliers(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "spec")
	if !ok {
		return
	}
	q := s.query(r)
	m := q.cost()
	k := q.intVal("k", 3)
	exact := q.flag("exact")
	if !q.valid(w) {
		return
	}
	key := cacheKey{spec: ns[0], runA: fmt.Sprintf("k=%d", k), cost: m.Name(), kind: kindOutliers}
	if v, ok := s.cachedCohortAnswer(ns[0], key, exact); ok {
		p := v.(outliersPayload)
		p.Cached = true
		s.writeJSON(w, p)
		return
	}
	v, in, ok := s.cohortViewFor(w, r, ns[0], m, 2, exact)
	if !ok {
		return
	}
	t0 := time.Now()
	scores, err := v.Outliers(k)
	observeStage(r.Context(), stageDiff, t0)
	if err != nil {
		s.httpError(w, err, http.StatusBadRequest)
		return
	}
	out := make([]outlierJSON, len(scores))
	for i, sc := range scores {
		out[i] = outlierJSON{Run: v.Label(sc.Index), Score: sc.Score, MeanAll: sc.MeanAll}
	}
	p := outliersPayload{Spec: ns[0], Cost: m.Name(), Neighbors: k, Outliers: out, Indexed: v.Indexed()}
	if !exact {
		s.cache.add(key, in, p)
	}
	s.writeJSON(w, p)
}

type neighborJSON struct {
	Run      string  `json:"run"`
	Distance float64 `json:"distance"`
}

type nearestPayload struct {
	Spec      string         `json:"spec"`
	Cost      string         `json:"cost"`
	Run       string         `json:"run"`
	Neighbors []neighborJSON `json:"neighbors"`
	Indexed   bool           `json:"indexed,omitempty"`
	Cached    bool           `json:"cached"`
}

// handleNearest returns the k stored runs closest to ?run= — "show me
// executions like this one", the interactive counterpart of the
// cohort matrix. Indexed cohorts answer byte-identically while exactly
// diffing only the candidates the lower bounds cannot rule out.
func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "spec")
	if !ok {
		return
	}
	q := s.query(r)
	m := q.cost()
	runName := q.name("run")
	k := q.intVal("k", 5)
	exact := q.flag("exact")
	if !q.valid(w) {
		return
	}
	key := cacheKey{spec: ns[0], runA: runName, runB: fmt.Sprintf("k=%d", k), cost: m.Name(), kind: kindNearest}
	if v, ok := s.cachedCohortAnswer(ns[0], key, exact); ok {
		p := v.(nearestPayload)
		p.Cached = true
		s.writeJSON(w, p)
		return
	}
	v, in, ok := s.cohortViewFor(w, r, ns[0], m, 2, exact)
	if !ok {
		return
	}
	idx, known := v.IndexOf(runName)
	if !known {
		s.httpError(w, fmt.Errorf("unknown run %q of %q", runName, ns[0]), http.StatusNotFound)
		return
	}
	t0 := time.Now()
	nn, err := v.Nearest(idx, k)
	observeStage(r.Context(), stageDiff, t0)
	if err != nil {
		s.httpError(w, err, http.StatusBadRequest)
		return
	}
	out := make([]neighborJSON, len(nn))
	for i, n := range nn {
		out[i] = neighborJSON{Run: v.Label(n.Index), Distance: n.Distance}
	}
	p := nearestPayload{Spec: ns[0], Cost: m.Name(), Run: runName, Neighbors: out, Indexed: v.Indexed()}
	if !exact {
		s.cache.add(key, in, p)
	}
	s.writeJSON(w, p)
}
