package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/cost"
	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/view"
)

// Workflow-evolution endpoints: spec-to-spec differencing and
// cross-version run comparison.
//
//	GET /v1/specs/{a}/evolve/{b}                 edit mapping between two spec versions
//	GET /v1/specs/{a}/evolve/{b}/svg             side-by-side overlay (deleted red, inserted green)
//	GET /v1/specs/{spec}/diff/{a}/{b}?across=B   cross-version run diff: run a of {spec}
//	                                             vs run b of lineage-linked spec B
//
// Mapping payloads are cached like diff payloads, keyed by both
// specification names. Mappings depend only on the specifications,
// so run churn never stales them; the cache entries exist to skip the
// recompute of the JSON body. Cross-version run diffs are keyed by the
// content hashes of both runs, like same-spec diffs.

type moduleAlignment struct {
	ASrc string `json:"a_src"`
	ADst string `json:"a_dst"`
	AKey int    `json:"a_key,omitempty"`
	BSrc string `json:"b_src"`
	BDst string `json:"b_dst"`
	BKey int    `json:"b_key,omitempty"`
	// Renamed marks survived modules whose terminals changed.
	Renamed bool `json:"renamed,omitempty"`
}

type evolvePayload struct {
	SpecA            string            `json:"spec_a"`
	SpecB            string            `json:"spec_b"`
	Linked           bool              `json:"lineage_linked"`
	Cost             float64           `json:"mapping_cost"`
	ANodes           int               `json:"a_nodes"`
	BNodes           int               `json:"b_nodes"`
	MappedNodes      int               `json:"mapped_nodes"`
	MappedModules    int               `json:"mapped_modules"`
	RenamedModules   int               `json:"renamed_modules"`
	DeletedModules   int               `json:"deleted_modules"`
	InsertedModules  int               `json:"inserted_modules"`
	RetypedInternals int               `json:"retyped_internals"`
	Modules          []moduleAlignment `json:"modules"`
	Cached           bool              `json:"cached"`
}

// handleEvolve serves the edit mapping between two specification
// versions. Unlike /diff?across, it answers for ANY pair of stored
// specs — lineage-linked pairs use (and persist) the recorded
// per-step mappings, unlinked pairs are mapped directly.
func (s *Server) handleEvolve(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "a", "b")
	if !ok {
		return
	}
	key := cacheKey{spec: ns[0], spec2: ns[1], kind: kindEvolve}
	if v, ok := s.cache.get(key, inputs{}); ok {
		p := v.(evolvePayload)
		p.Cached = true
		s.writeJSON(w, p)
		return
	}
	m, linked, err := s.st.SpecMapping(ns[0], ns[1])
	if err != nil {
		s.storeError(w, err)
		return
	}
	st := m.Stats()
	p := evolvePayload{
		SpecA:            ns[0],
		SpecB:            ns[1],
		Linked:           linked,
		Cost:             m.Cost,
		ANodes:           st.ANodes,
		BNodes:           st.BNodes,
		MappedNodes:      st.Mapped,
		MappedModules:    st.MappedModules,
		RenamedModules:   st.RenamedModules,
		DeletedModules:   st.DeletedModules,
		InsertedModules:  st.InsertedModules,
		RetypedInternals: st.RetypedInternals,
		Modules:          make([]moduleAlignment, 0, st.MappedModules),
	}
	for a, b := range m.MappedModules() {
		al := moduleAlignment{
			ASrc: string(a.From), ADst: string(a.To), AKey: a.Key,
			BSrc: string(b.From), BDst: string(b.To), BKey: b.Key,
		}
		al.Renamed = al.ASrc != al.BSrc || al.ADst != al.BDst
		p.Modules = append(p.Modules, al)
	}
	sortModules(p.Modules)
	s.cache.add(key, inputs{}, p)
	s.writeJSON(w, p)
}

func sortModules(ms []moduleAlignment) {
	sort.Slice(ms, func(i, j int) bool { return lessModule(ms[i], ms[j]) })
}

func lessModule(a, b moduleAlignment) bool {
	if a.ASrc != b.ASrc {
		return a.ASrc < b.ASrc
	}
	if a.ADst != b.ADst {
		return a.ADst < b.ADst
	}
	// Parallel modules share terminals; the key makes the order total
	// so payloads are byte-identical across restarts.
	return a.AKey < b.AKey
}

// handleEvolveSVG serves the side-by-side spec overlay: version A with
// deleted modules in red, version B with inserted modules in green.
func (s *Server) handleEvolveSVG(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.names(w, r, "a", "b")
	if !ok {
		return
	}
	key := cacheKey{spec: ns[0], spec2: ns[1], kind: kindEvolve + "-svg"}
	if v, ok := s.cache.get(key, inputs{}); ok {
		w.Header().Set("Content-Type", "image/svg+xml")
		io.WriteString(w, v.(string))
		return
	}
	m, linked, err := s.st.SpecMapping(ns[0], ns[1])
	if err != nil {
		s.storeError(w, err)
		return
	}
	keptA := make(map[graph.Edge]bool)
	keptB := make(map[graph.Edge]bool)
	for a, b := range m.MappedModules() {
		keptA[a] = true
		keptB[b] = true
	}
	caption := fmt.Sprintf("spec evolution cost %g", m.Cost)
	if linked {
		caption += " (lineage-linked)"
	}
	svg := view.SpecPairSVG(m.A, m.B, keptA, keptB, ns[0], ns[1], caption)
	s.cache.add(key, inputs{}, svg)
	w.Header().Set("Content-Type", "image/svg+xml")
	io.WriteString(w, svg)
}

// --- cross-version run diff -----------------------------------------

type xdiffPayload struct {
	SpecA          string  `json:"spec_a"`
	RunA           string  `json:"run_a"`
	SpecB          string  `json:"spec_b"`
	RunB           string  `json:"run_b"`
	Cost           string  `json:"cost"`
	Distance       float64 `json:"distance"`
	EngineDistance float64 `json:"engine_distance"`
	DroppedCost    float64 `json:"dropped_cost"`
	InsertedCost   float64 `json:"inserted_cost"`
	MappingCost    float64 `json:"mapping_cost"`
	ProjectedNodes int     `json:"projected_nodes"`
	ProjectedEdges int     `json:"projected_edges"`
	Cached         bool    `json:"cached"`
}

// crossDiff serves /v1/specs/{spec}/diff/{a}/{b}?across={spec2}: run a of
// {spec} compared with run b of {spec2}. The two specifications must
// be lineage-linked — registered through PutSpecVersion / the
// put-version CLI — so the comparison runs under the recorded
// evolution mapping rather than an arbitrary guess.
func (s *Server) crossDiff(w http.ResponseWriter, r *http.Request, specA, runA, runB, across string, m cost.Model) {
	if err := validateAcross(across); err != nil {
		s.httpError(w, err, http.StatusBadRequest)
		return
	}
	ra, rb, in, err := s.loadPair(r.Context(), specA, runA, across, runB)
	if err != nil {
		s.storeError(w, err)
		return
	}
	key := cacheKey{spec: specA, runA: runA, runB: runB, cost: m.Name(), kind: kindCross, spec2: across}
	if v, ok := s.cache.get(key, in); ok {
		p := v.(xdiffPayload)
		p.Cached = true
		s.writeJSON(w, p)
		return
	}
	// Reject unlinked pairs before the mapping: the linkage walk reads
	// only lineage records, so probing arbitrary ?across= names never
	// computes (or caches) a mapping.
	linked, err := s.st.Linked(specA, across)
	if err != nil {
		s.storeError(w, err)
		return
	}
	if !linked {
		s.httpError(w, fmt.Errorf("specifications %q and %q are not lineage-linked; register versions with put-version before cross-diffing", specA, across), http.StatusBadRequest)
		return
	}
	mapping, _, err := s.st.SpecMapping(specA, across)
	if err != nil {
		s.storeError(w, err)
		return
	}
	eng := s.pools.get(across, m)
	res, err := evolve.CrossDiffWith(eng, mapping, ra, rb, m)
	s.pools.put(across, m, eng)
	if err != nil {
		s.storeError(w, err)
		return
	}
	p := xdiffPayload{
		SpecA:          specA,
		RunA:           runA,
		SpecB:          across,
		RunB:           runB,
		Cost:           m.Name(),
		Distance:       res.Distance,
		EngineDistance: res.EngineDistance,
		DroppedCost:    res.Projection.DroppedCost,
		InsertedCost:   res.Projection.InsertedCost,
		MappingCost:    res.Mapping.Cost,
		ProjectedNodes: res.Projected.NumNodes(),
		ProjectedEdges: res.Projected.NumEdges(),
	}
	s.cache.add(key, in, p)
	s.writeJSON(w, p)
}

func validateAcross(name string) error {
	if err := store.ValidateName(name); err != nil {
		return fmt.Errorf("across: %w", err)
	}
	return nil
}
