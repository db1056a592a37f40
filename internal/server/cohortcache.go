package server

import (
	"errors"
	"io/fs"
	"sync"

	"repro/internal/analysis"
	"repro/internal/cost"
	"repro/internal/wfrun"
)

// cohortEntry is the server's long-lived incremental cohort state for
// one (specification, cost model) pair: a HybridCohort that keeps a
// dense distance matrix for small cohorts and switches to the metric
// index past the configured threshold. The cohort persists across
// requests — importing one run into an n-run cohort differences only
// the incremental pairs — and is kept honest through generation-checked
// invalidation: every store run-change bumps gen and records the run
// as dirty, and a request only trusts the cohort after replaying the
// dirty set for the generation it captured. A row computed from a run
// that changed mid-sync can therefore be *served* to the request that
// raced the change (the change was concurrent, either order is
// linearizable) but can never be *retained*: the bumped generation
// forces the next request to replace it.
type cohortEntry struct {
	// syncMu serializes sync passes (and thus all cohort mutations).
	syncMu sync.Mutex
	hc     *analysis.HybridCohort
	inited bool  // hc has had its initial full build
	synced int64 // generation the cohort content reflects

	// stateMu guards the invalidation state; it is taken by the store
	// hook and nests inside syncMu on the sync path.
	stateMu sync.Mutex
	gen     int64
	dirty   map[string]bool
	// full marks the whole cohort stale: the next sync does one Reset
	// instead of one Remove+Add per dirty run. It is set by a failed
	// sync restoring a promoted batch; batches themselves only mark
	// dirty runs and the sync pass promotes large ones (cohortView).
	full bool
}

// maxCohortEntries bounds the entry map: its keys include the ?cost=
// parameter, which untrusted clients control. Past the cap, requests
// fall back to one-shot cohorts instead of growing the map.
const maxCohortEntries = 64

// cohortCaches holds all live cohorts, keyed like enginePools by
// spec + NUL + cost-model name.
type cohortCaches struct {
	mu      sync.Mutex
	entries map[string]*cohortEntry
	hybrid  analysis.HybridOptions
}

func newCohortCaches(hybrid analysis.HybridOptions) *cohortCaches {
	return &cohortCaches{entries: make(map[string]*cohortEntry), hybrid: hybrid}
}

// entry returns the cohort entry for (spec, model), creating it on
// first use; nil once the map is at capacity.
func (cc *cohortCaches) entry(specName string, m cost.Model) *cohortEntry {
	key := poolKey(specName, m)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	e, ok := cc.entries[key]
	if !ok {
		if len(cc.entries) >= maxCohortEntries {
			return nil
		}
		e = &cohortEntry{
			hc:    analysis.NewHybridCohort(m, 0, cc.hybrid),
			dirty: make(map[string]bool),
		}
		cc.entries[key] = e
	}
	return e
}

// all snapshots every live entry (for stats aggregation).
func (cc *cohortCaches) all() []*cohortEntry {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	out := make([]*cohortEntry, 0, len(cc.entries))
	for _, e := range cc.entries {
		out = append(out, e)
	}
	return out
}

// entriesForSpec snapshots the live cohort entries of one spec (its
// pool keys are "<spec>\x00<cost>" for every cost model seen).
func (cc *cohortCaches) entriesForSpec(specName string) []*cohortEntry {
	prefix := specName + "\x00"
	cc.mu.Lock()
	defer cc.mu.Unlock()
	var hit []*cohortEntry
	for key, e := range cc.entries {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			hit = append(hit, e)
		}
	}
	return hit
}

// invalidate records a change to a spec's runs (a commit of any size
// or a delete): every cohort of the spec advances its generation once
// and marks the named runs dirty. How the batch is replayed — one
// Remove+Add per dirty run, or one full Reset — is decided at sync
// time against the live cohort size (see cohortView): a pipeline batch
// of a few runs into a large cohort stays incremental, while a bulk
// import that rivals the cohort pays one Reset instead of n re-adds.
func (cc *cohortCaches) invalidate(specName string, runNames []string) {
	for _, e := range cc.entriesForSpec(specName) {
		e.stateMu.Lock()
		e.gen++
		for _, name := range runNames {
			e.dirty[name] = true
		}
		e.stateMu.Unlock()
	}
}

// count reports how many cohorts are live.
func (cc *cohortCaches) count() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.entries)
}

// cohortRuns lists and loads the stored runs of a spec. Runs deleted
// between the listing and the load are skipped rather than failed: the
// deletion already bumped the generation, so a later request
// reconciles.
func (s *Server) cohortRuns(specName string) ([]string, []*wfrun.Run, error) {
	names, err := s.st.ListRuns(specName)
	if err != nil {
		return nil, nil, err
	}
	outNames := names[:0]
	runs := make([]*wfrun.Run, 0, len(names))
	for _, name := range names {
		r, err := s.st.LoadRun(specName, name)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, nil, err
		}
		outNames = append(outNames, name)
		runs = append(runs, r)
	}
	return outNames, runs, nil
}

// cohortView returns an up-to-date view of the spec's cohort under the
// given model — dense matrix below the index threshold, metric index
// above — incrementally synced against the store. A full dense rebuild
// runs under build's Context and Progress (see HybridCohort.Reset): a
// cancelled build fails this call and leaves the cohort for the next
// request to rebuild.
func (s *Server) cohortView(specName string, m cost.Model, build analysis.Options) (*analysis.CohortView, error) {
	e := s.cohorts.entry(specName, m)
	if e == nil {
		// Entry map at capacity: compute a one-shot cohort without
		// retaining it.
		names, runs, err := s.cohortRuns(specName)
		if err != nil {
			return nil, err
		}
		hc := analysis.NewHybridCohort(m, 0, s.cohorts.hybrid)
		if err := hc.Reset(names, runs, build); err != nil {
			return nil, err
		}
		return hc.View(), nil
	}

	e.syncMu.Lock()
	defer e.syncMu.Unlock()

	e.stateMu.Lock()
	gen := e.gen
	dirty := e.dirty
	full := e.full
	e.dirty = make(map[string]bool)
	e.full = false
	e.stateMu.Unlock()

	if e.inited && e.synced == gen {
		return e.hc.View(), nil
	}

	// Replay strategy: a dirty set that rivals the live cohort is
	// cheaper to Reset in one fan-out than to Remove+Add row by row
	// (bulk imports land here); a small batch — a lone re-import or
	// one group-commit from the ingest pipeline — stays incremental.
	if e.inited && !full && 2*len(dirty) >= e.hc.Len() {
		full = true
	}

	// restoreDirty puts unapplied invalidations back on error, so a
	// failed sync can never launder a dirty run into a clean one.
	restoreDirty := func() {
		e.stateMu.Lock()
		for name := range dirty {
			e.dirty[name] = true
		}
		e.full = e.full || full
		e.stateMu.Unlock()
	}

	if !e.inited || full {
		names, runs, err := s.cohortRuns(specName)
		if err != nil {
			restoreDirty()
			return nil, err
		}
		if err := e.hc.Reset(names, runs, build); err != nil {
			restoreDirty()
			return nil, err
		}
		e.inited = true
	} else {
		// Changed or deleted runs leave the cohort first; whatever
		// still exists on disk is then (re-)added incrementally.
		for name := range dirty {
			e.hc.Remove(name)
		}
		names, err := s.st.ListRuns(specName)
		if err != nil {
			restoreDirty()
			return nil, err
		}
		for _, name := range names {
			if e.hc.Has(name) {
				continue
			}
			r, err := s.st.LoadRun(specName, name)
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					continue
				}
				restoreDirty()
				return nil, err
			}
			if err := e.hc.Add(name, r); err != nil {
				restoreDirty()
				return nil, err
			}
		}
	}
	// Publish the sync point: changes that raced this pass advanced
	// gen past the captured value, so they stay unsynced and the next
	// request reconciles them.
	e.synced = gen
	return e.hc.View(), nil
}

// exactCohortMatrix is a dense distance matrix at any cohort size,
// for /cohort and the analytics ?exact= escape hatch. When the synced
// cohort is dense its matrix is reused; an indexed cohort gets a
// one-shot O(n²) fan-out. build's Context and Progress apply to
// whichever full computation the call makes. The matrix is nil when
// the cohort is empty.
func (s *Server) exactCohortMatrix(specName string, m cost.Model, build analysis.Options) (*analysis.Matrix, error) {
	v, err := s.cohortView(specName, m, build)
	if err != nil {
		return nil, err
	}
	if !v.Indexed() {
		return v.Matrix, nil
	}
	names, runs, err := s.cohortRuns(specName)
	if err != nil {
		return nil, err
	}
	return analysis.DistanceMatrixWith(runs, names, m, build)
}
