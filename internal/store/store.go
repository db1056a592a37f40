// Package store is a provenance repository: XML specifications with
// their collected runs, addressable by name, plus differencing and
// cohort analysis over stored runs. It provides the persistence layer
// the PDiffView prototype keeps behind its import/export menus
// ("view, store, generate and import/export SP-specifications and
// their associated runs", Section VII).
//
// Persistence goes through the Backend interface — a local directory
// tree or an in-memory map. Specifications are
// stored as XML; runs are stored once, as codec frames in a per-spec
// append-only segment, committed by a Merkle ledger and indexed by a
// checkpointed manifest (see snapshot.go). XML is what runs are
// imported from and exported to. Both specifications and decoded runs
// are cached under a read-write lock, so repeated differencing of
// stored runs (the cohort paths) decodes each run once and then serves
// all readers concurrently.
//
// Logical layout (identical to the on-disk layout of the fs backend):
//
//	<spec>/spec.xml
//	<spec>/snapshot/{manifest.json,runs.seg,ledger.log}
package store

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/evolve"
	"repro/internal/spec"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// Store is a backend-backed provenance repository. It is safe for
// concurrent use; loaded specifications are cached so runs of the same
// specification share one *spec.Spec (a requirement for differencing),
// and decoded runs are cached so differencing the same stored runs
// repeatedly does not re-decode their frames. Cached runs are shared:
// treat them as immutable (differencing only reads them).
type Store struct {
	be Backend

	mu    sync.RWMutex
	specs map[string]*spec.Spec
	runs  map[string]cachedRun // "<spec>/<run>" → decoded run

	snapsMu sync.Mutex
	snaps   map[string]*snapState // per-spec snapshot manifests

	mapMu    sync.Mutex
	mappings map[string]*evolve.SpecMapping // "a\x00b" → spec mapping

	liveMu sync.Mutex
	live   map[string]*liveRun // "<spec>/<run>" → in-flight run state
}

// Open opens (creating if needed) a repository rooted at dir on the
// filesystem backend. Before it returns, it upgrades every spec an
// older release wrote to the current format (upgrade) and leaves
// every spec's run index loaded; a failed upgrade fails the open.
func Open(dir string) (*Store, error) { return OpenRepository(dir, "fs", 1) }

// OpenBackend opens a repository over an explicit storage backend.
// The store takes ownership: Close closes the backend. It loads
// nothing and does not upgrade: a spec an older release wrote is
// refused as damage by every read of it until Open or OpenRepository
// upgrades the repository.
func OpenBackend(be Backend) *Store {
	return &Store{
		be:       be,
		specs:    make(map[string]*spec.Spec),
		runs:     make(map[string]cachedRun),
		snaps:    make(map[string]*snapState),
		mappings: make(map[string]*evolve.SpecMapping),
		live:     make(map[string]*liveRun),
	}
}

// OpenRepository opens dir over the named backend kind (NewBackend)
// and upgrades it as Open does. shards is accepted for callers of the
// older three-argument form: 0 and 1 mean one backend, and anything
// more is refused because sharded repositories are no longer
// supported.
func OpenRepository(dir, kind string, shards int) (*Store, error) {
	if shards > 1 {
		return nil, fmt.Errorf("store: sharding was removed; %d shards requested, want 1", shards)
	}
	be, err := NewBackend(kind, dir)
	if err != nil {
		return nil, err
	}
	s := OpenBackend(be)
	specs, err := s.ListSpecs()
	for i := 0; err == nil && i < len(specs); i++ {
		err = s.upgrade(specs[i])
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Backend returns the storage backend the repository lives on.
func (s *Store) Backend() Backend { return s.be }

// BackendKind names the storage backend for stats and diagnostics.
func (s *Store) BackendKind() string { return s.be.Kind() }

// Close releases the storage backend.
func (s *Store) Close() error { return s.be.Close() }

func runKey(specName, runName string) string { return specName + "/" + runName }

// cachedRun is a decoded run with the content hash of the frame it was
// decoded from.
type cachedRun struct {
	run  *wfrun.Run
	hash string
}

// ValidateName reports whether a spec or run name is safe to join into
// the repository root. Every boundary that accepts untrusted names
// (the CLI, the HTTP service) must call it before the name reaches the
// backend: path separators, traversal components, NUL bytes and
// hidden/dot names are all rejected, so a stored object can never
// escape its spec's directory.
func ValidateName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("store: empty name")
	case len(name) > 255:
		return fmt.Errorf("store: name longer than 255 bytes")
	case strings.ContainsAny(name, "/\\"):
		return fmt.Errorf("store: name %q contains a path separator", name)
	case strings.ContainsRune(name, 0):
		return fmt.Errorf("store: name contains a NUL byte")
	case name == "." || name == ".." || strings.HasPrefix(name, "."):
		return fmt.Errorf("store: invalid name %q", name)
	}
	return nil
}

// validateNames is ValidateName over each name in turn.
func validateNames(names ...string) error {
	for _, name := range names {
		if err := ValidateName(name); err != nil {
			return err
		}
	}
	return nil
}

// Backend keys of the repository layout.
func specXMLKey(name string) string { return name + "/spec.xml" }

// SaveSpec stores a specification under the given name. Saving over an
// existing specification is rejected once runs exist (their trees
// reference the stored specification).
func (s *Store) SaveSpec(name string, sp *spec.Spec) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	runs, err := s.ListRuns(name)
	if err != nil {
		return err
	}
	if len(runs) > 0 {
		return fmt.Errorf("store: specification %q already has %d runs; refusing to overwrite", name, len(runs))
	}
	var buf bytes.Buffer
	if err := wfxml.EncodeSpec(&buf, sp, name); err != nil {
		return err
	}
	if err := s.be.WriteFile(specXMLKey(name), buf.Bytes()); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	s.specs[name] = sp
	s.mu.Unlock()
	// Cached spec mappings hold pointers into the replaced spec
	// object; drop them so cross-version queries rebuild against the
	// new one.
	s.dropMappings(name)
	return nil
}

// LoadSpec returns the named specification, cached after first load.
// Only a spec.xml that does not exist makes it an unknown
// specification; one that cannot be read or parsed is ErrDamaged.
func (s *Store) LoadSpec(name string) (*spec.Spec, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	s.mu.RLock()
	if sp, ok := s.specs[name]; ok {
		s.mu.RUnlock()
		return sp, nil
	}
	s.mu.RUnlock()
	data, err := s.be.ReadFile(specXMLKey(name))
	if isNotExist(err) {
		return nil, fmt.Errorf("store: unknown specification %q: %w", name, err)
	}
	if err != nil {
		return nil, damaged(fmt.Errorf("store: specification %q: %w", name, err))
	}
	sp, err := wfxml.DecodeSpec(bytes.NewReader(data))
	if err != nil {
		return nil, damaged(fmt.Errorf("store: specification %q: %w", name, err))
	}
	s.mu.Lock()
	// Another goroutine may have raced the load; keep the first.
	if have, ok := s.specs[name]; ok {
		sp = have
	} else {
		s.specs[name] = sp
	}
	s.mu.Unlock()
	return sp, nil
}

// ListSpecs returns the stored specification names, sorted.
func (s *Store) ListSpecs() ([]string, error) {
	entries, err := s.be.List("")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.Dir {
			if _, err := s.be.Stat(specXMLKey(e.Name)); err == nil {
				out = append(out, e.Name)
			} else if !isNotExist(err) {
				return nil, fmt.Errorf("store: %w", err)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// SaveRun stores a run under the named specification. The run must
// belong to the stored specification object (load it via LoadSpec
// before executing or deriving runs).
//
// A caller-built tree (gen, Execute) may group forks differently from
// what parsing its XML derives, so the run is canonicalized through
// one XML encode and decode first: what is stored is exactly what
// importing the exported XML would store. The commit is the one-run
// form of ImportParsed.
func (s *Store) SaveRun(specName, runName string, r *wfrun.Run) error {
	if err := validateNames(specName, runName); err != nil {
		return err
	}
	sp, err := s.LoadSpec(specName)
	if err != nil {
		return err
	}
	if r.Spec != sp {
		return fmt.Errorf("store: run does not belong to stored specification %q; build runs against LoadSpec(%q)", specName, specName)
	}
	var buf bytes.Buffer
	if err := wfxml.EncodeRun(&buf, r, runName); err != nil {
		return err
	}
	canon, err := wfxml.DecodeRun(&buf, sp)
	if err != nil {
		return err
	}
	_, err = s.ImportParsed(specName, []ParsedRun{{Name: runName, Run: canon}})
	return err
}

// LoadRun loads a stored run, decoding its frame against the cached
// specification. Decoded runs are cached: repeated loads (and every
// Diff/Cohort call) share one *wfrun.Run, which callers must treat as
// read-only. A frame that fails its checksum or names another run is
// an error naming the run and its batch.
func (s *Store) LoadRun(specName, runName string) (*wfrun.Run, error) {
	r, _, err := s.LoadRunHash(specName, runName)
	return r, err
}

// LoadRunHash is LoadRun that also returns the hex content hash of the
// frame the run was decoded from — its ledger identity, which changes
// exactly when the stored run does.
func (s *Store) LoadRunHash(specName, runName string) (*wfrun.Run, string, error) {
	if err := validateNames(specName, runName); err != nil {
		return nil, "", err
	}
	s.mu.RLock()
	c, ok := s.runs[runKey(specName, runName)]
	s.mu.RUnlock()
	if ok {
		return c.run, c.hash, nil
	}
	sp, err := s.LoadSpec(specName)
	if err != nil {
		return nil, "", err
	}
	e, err := s.manifestEntry(specName, runName)
	if err != nil {
		return nil, "", err
	}
	var buf []byte
	if c, err = s.loadEntry(specName, runName, e, sp, &buf); err != nil {
		return nil, "", err
	}
	r, _ := s.cacheRun(specName, runName, c)
	return r, c.hash, nil
}

// cacheRun publishes a decoded run, keeping the first copy if another
// goroutine raced the load so all readers share one tree. It publishes
// under the state lock and only while the manifest still holds the
// decoded hash: a load that raced a delete or an overwrite returns
// what it read, but never caches it. listed is false when the manifest
// no longer lists the run at all.
func (s *Store) cacheRun(specName, runName string, c cachedRun) (r *wfrun.Run, listed bool) {
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.loaded {
		return c.run, true
	}
	if e, ok := st.manifest.Runs[runName]; !ok || e.Hash != c.hash {
		return c.run, ok
	}
	key := runKey(specName, runName)
	s.mu.Lock()
	defer s.mu.Unlock()
	if have, ok := s.runs[key]; ok {
		return have.run, true
	}
	s.runs[key] = c
	return c.run, true
}

// ListRuns returns the run names stored under a specification, sorted:
// the keys of its manifest.
func (s *Store) ListRuns(specName string) ([]string, error) {
	if err := ValidateName(specName); err != nil {
		return nil, err
	}
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.loadManifestLocked(specName, st); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(st.manifest.Runs))
	for name := range st.manifest.Runs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// RunsVersion returns a specification's run-set version: a counter
// that advances once per commit and once per delete, so a result
// computed from the runs at one version is current while the version
// holds. It is read without the state lock, which a commit holds
// across its fsyncs, and it creates no state for a name it has not
// seen (that reads 0).
func (s *Store) RunsVersion(specName string) uint64 {
	s.snapsMu.Lock()
	st := s.snaps[specName]
	s.snapsMu.Unlock()
	if st == nil {
		return 0
	}
	return st.version.Load()
}

// RunHashes lists a specification's runs with the hex content hash of
// each, and the run-set version the listing reflects.
func (s *Store) RunHashes(specName string) (uint64, map[string]string, error) {
	if err := ValidateName(specName); err != nil {
		return 0, nil, err
	}
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.loadManifestLocked(specName, st); err != nil {
		return 0, nil, err
	}
	out := make(map[string]string, len(st.manifest.Runs))
	for name, e := range st.manifest.Runs {
		out[name] = e.Hash
	}
	return st.version.Load(), out, nil
}

// Diff loads two stored runs (cached after first parse) and
// differences them. The Result owns a fresh engine, so its Mapping and
// Script stay valid indefinitely; batch callers should prefer DiffWith
// or Cohort.
func (s *Store) Diff(specName, runA, runB string, m cost.Model) (*core.Result, error) {
	return s.DiffWith(core.NewEngine(m), specName, runA, runB)
}

// DiffWith differences two stored runs with a caller-owned engine,
// the allocation-free path for batch differencing over the repository.
// The usual engine contract applies: extract Mapping/Script from the
// Result before reusing the engine, and do not share one engine
// across goroutines.
func (s *Store) DiffWith(eng *core.Engine, specName, runA, runB string) (*core.Result, error) {
	a, err := s.LoadRun(specName, runA)
	if err != nil {
		return nil, err
	}
	b, err := s.LoadRun(specName, runB)
	if err != nil {
		return nil, err
	}
	return eng.Diff(a, b)
}

// Cohort loads the named stored runs of a specification (all of them
// when runNames is nil) and computes their pairwise edit-distance
// matrix, fanning the differencing out with one engine per worker.
func (s *Store) Cohort(specName string, runNames []string, m cost.Model) (*analysis.Matrix, error) {
	if runNames == nil {
		var err error
		runNames, err = s.ListRuns(specName)
		if err != nil {
			return nil, err
		}
	}
	runs := make([]*wfrun.Run, len(runNames))
	for i, name := range runNames {
		r, err := s.LoadRun(specName, name)
		if err != nil {
			return nil, err
		}
		runs[i] = r
	}
	return analysis.DistanceMatrix(runs, runNames, m)
}
