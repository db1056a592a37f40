package server

import (
	"errors"
	"io/fs"
	"slices"
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
// the incremental pairs. It records the content hash of every member
// and the store run-set version those hashes were reconciled against,
// which a sync (cohortView) compares with the store's.
type cohortEntry struct {
	// syncMu serializes sync passes (and thus all cohort mutations).
	syncMu sync.Mutex
	hc     *analysis.HybridCohort
	// hashes maps each member to the content hash it was added with;
	// nil until the first sync, and after a failed one.
	hashes  map[string]string
	version uint64 // store.RunsVersion that hashes reflect
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
		e = &cohortEntry{hc: analysis.NewHybridCohort(m, cc.hybrid)}
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

// count reports how many cohorts are live.
func (cc *cohortCaches) count() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.entries)
}

// cohortRuns loads the runs listed in want, in name order, with the
// content hash of the copy each load returned. Runs deleted since the
// listing are skipped.
func (s *Server) cohortRuns(specName string, want map[string]string) ([]string, []*wfrun.Run, map[string]string, error) {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	slices.Sort(names)
	outNames := names[:0]
	runs := make([]*wfrun.Run, 0, len(names))
	hashes := make(map[string]string, len(names))
	for _, name := range names {
		r, h, err := s.st.LoadRunHash(specName, name)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, nil, nil, err
		}
		outNames = append(outNames, name)
		runs = append(runs, r)
		hashes[name] = h
	}
	return outNames, runs, hashes, nil
}

// cohortView returns an up-to-date view of the spec's cohort under the
// given model — dense matrix below the index threshold, metric index
// above — and the store run-set version it reflects. A sync costs one
// atomic read while that version holds. Otherwise the store's run
// hashes are compared with the cohort's: changes that rival the cohort
// are applied by one Reset, fewer by Remove and Add per changed run. A
// full dense rebuild runs under build's Context and Progress (see
// HybridCohort.Reset). A failed sync fails this call and leaves the
// cohort for the next request to rebuild. A sync that raced a commit
// or delete may hold newer runs than the listing; it records the
// listing's version, which that change has already advanced past, so
// the next request reconciles.
func (s *Server) cohortView(specName string, m cost.Model, build analysis.Options) (*analysis.CohortView, uint64, error) {
	e := s.cohorts.entry(specName, m)
	if e == nil {
		// Entry map at capacity: compute a one-shot cohort without
		// retaining it.
		version, want, err := s.st.RunHashes(specName)
		if err != nil {
			return nil, 0, err
		}
		names, runs, _, err := s.cohortRuns(specName, want)
		if err != nil {
			return nil, 0, err
		}
		hc := analysis.NewHybridCohort(m, s.cohorts.hybrid)
		if err := hc.Reset(names, runs, build); err != nil {
			return nil, 0, err
		}
		return hc.View(), version, nil
	}

	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	if e.hashes != nil && e.version == s.st.RunsVersion(specName) {
		return e.hc.View(), e.version, nil
	}
	version, want, err := s.st.RunHashes(specName)
	if err != nil {
		return nil, 0, err
	}
	if err := s.syncCohort(e, specName, want, build); err != nil {
		e.hashes = nil
		return nil, 0, err
	}
	e.version = version
	return e.hc.View(), version, nil
}

// syncCohort brings e's members and hashes in line with want, the
// store's run hashes. Caller holds e.syncMu.
func (s *Server) syncCohort(e *cohortEntry, specName string, want map[string]string, build analysis.Options) error {
	var changed, gone []string
	for name, h := range want {
		if have, ok := e.hashes[name]; !ok || have != h {
			changed = append(changed, name)
		}
	}
	for name := range e.hashes {
		if _, ok := want[name]; !ok {
			gone = append(gone, name)
		}
	}
	// A change set that rivals the live cohort is cheaper to Reset in
	// one fan-out than to apply row by row (bulk imports land here); a
	// lone re-import or one group commit stays incremental.
	if e.hashes == nil || 2*(len(changed)+len(gone)) >= e.hc.Len() {
		names, runs, hashes, err := s.cohortRuns(specName, want)
		if err != nil {
			return err
		}
		if err := e.hc.Reset(names, runs, build); err != nil {
			return err
		}
		e.hashes = hashes
		return nil
	}
	slices.Sort(changed)
	for _, name := range append(gone, changed...) {
		e.hc.Remove(name)
		delete(e.hashes, name)
	}
	for _, name := range changed {
		r, h, err := s.st.LoadRunHash(specName, name)
		if errors.Is(err, fs.ErrNotExist) {
			continue // deleted since the listing
		}
		if err != nil {
			return err
		}
		if err := e.hc.Add(name, r); err != nil {
			return err
		}
		e.hashes[name] = h
	}
	return nil
}

// exactCohortMatrix is a dense distance matrix at any cohort size,
// for /cohort and the analytics ?exact= escape hatch. When the synced
// cohort is dense its matrix is reused; an indexed cohort gets a
// one-shot O(n²) fan-out. build's Context and Progress apply to
// whichever full computation the call makes. The matrix is nil when
// the cohort is empty.
func (s *Server) exactCohortMatrix(specName string, m cost.Model, build analysis.Options) (*analysis.Matrix, error) {
	v, _, err := s.cohortView(specName, m, build)
	if err != nil {
		return nil, err
	}
	if !v.Indexed() {
		return v.Matrix, nil
	}
	_, want, err := s.st.RunHashes(specName)
	if err != nil {
		return nil, err
	}
	names, runs, _, err := s.cohortRuns(specName, want)
	if err != nil {
		return nil, err
	}
	return analysis.DistanceMatrixWith(runs, names, m, build)
}
