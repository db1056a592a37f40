package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/codec"
	"repro/internal/ledger"
	"repro/internal/spec"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// The snapshot layer is where runs are stored. Each run is one
// checksummed codec frame in an append-only segment; the manifest maps
// run names onto frames, and the ledger attests every frame the
// manifest points at. XML is what the store imports and exports, not
// what it keeps: ExportSpec renders it with wfxml.EncodeRun.
//
// Layout, per specification (backend keys):
//
//	<spec>/snapshot/manifest.json   run name → frame (offset, length, hash, batch)
//	<spec>/snapshot/runs.seg        append-only run frames
//	<spec>/snapshot/ledger.log      Merkle ledger, one record per commit
//	<spec>/snapshot/spec.bin        binary specification frame
//
// Every stored frame equals codec.EncodeRun of the run that parsing
// the run's canonical XML produces, so export followed by re-import
// reproduces the frame byte for byte. Deleting or re-importing a run
// drops or replaces its entry; the dead bytes stay in the segment until
// the compaction threshold is crossed, as in a log-structured store.
//
// A corrupt frame or manifest is an error, never a silent miss: the
// segment holds the only copy of each run.

// manifestVersion guards the manifest JSON schema itself. Version 3
// dropped the XML fingerprint fields of version 2; a version-2
// manifest is upgraded in place on first load. A version-1 manifest
// (no content hashes) is discarded: its repository still keeps every
// run as XML, which the legacy migration re-commits.
const manifestVersion = 3

// compactMinDeadBytes and compactMinDeadRatio bound segment garbage:
// a manifest save triggers compaction once the segment holds at least
// compactMinDeadBytes of dead frames and they exceed
// compactMinDeadRatio of the file.
const (
	compactMinDeadBytes = 1 << 20
	compactMinDeadRatio = 0.5
)

// snapEntry indexes one run frame inside the segment.
type snapEntry struct {
	Offset int64 `json:"offset"`
	Length int64 `json:"length"`
	Codec  int   `json:"codec"` // codec.Version the frame was written with
	Nodes  int   `json:"nodes"`
	Edges  int   `json:"edges"`
	// Hash is the hex SHA-256 content hash of the codec frame (the
	// frame's ledger identity); Batch is the seq of the ledger record
	// that most recently committed it.
	Hash  string `json:"hash"`
	Batch int64  `json:"batch"`
}

// snapManifest is the JSON document at snapshot/manifest.json.
type snapManifest struct {
	Version int                  `json:"version"`
	Live    int64                `json:"live_bytes"`
	Dead    int64                `json:"dead_bytes"`
	Runs    map[string]snapEntry `json:"runs"`
}

// snapState is the in-memory snapshot state of one specification.
// Manifest mutations and segment appends serialize on mu; reads copy
// the entry out and release the lock before touching the segment.
type snapState struct {
	mu       sync.Mutex
	manifest *snapManifest
	loaded   bool
	// Ledger append cursor: seq and head of the last record in
	// ledger.log, loaded lazily alongside the manifest.
	ledgerLoaded bool
	ledgerSeq    int64
	ledgerHead   ledger.Hash
}

// Snapshot-layer backend keys.
func manifestKey(specName string) string { return specName + "/snapshot/manifest.json" }
func segmentKey(specName string) string  { return specName + "/snapshot/runs.seg" }
func specBinKey(specName string) string  { return specName + "/snapshot/spec.bin" }
func ledgerKey(specName string) string   { return specName + "/snapshot/ledger.log" }

// snap returns the snapshot state for a spec, creating it on first
// use. The manifest itself is loaded lazily under the state lock.
func (s *Store) snap(specName string) *snapState {
	s.snapsMu.Lock()
	defer s.snapsMu.Unlock()
	st, ok := s.snaps[specName]
	if !ok {
		st = &snapState{}
		s.snaps[specName] = st
	}
	return st
}

// loadManifestLocked reads manifest.json on first use and migrates any
// legacy run documents (see migrateLegacyLocked). A missing manifest
// is an empty one while the ledger holds at most one batch: the spec
// has no committed runs yet, and whatever the segment holds (a crashed
// first commit) is counted dead. A manifest that cannot be parsed, or
// is missing although the ledger attests later batches, is an error
// naming the spec, and stays one on every later call: the segment
// holds the only copy of each run, so guessing an empty run list
// would lose them. Caller holds st.mu.
func (s *Store) loadManifestLocked(specName string, st *snapState) error {
	if st.loaded {
		return nil
	}
	m, legacy, err := s.readManifest(specName)
	if err != nil {
		return err
	}
	st.manifest = m
	if err := s.migrateLegacyLocked(specName, st, legacy); err != nil {
		st.manifest = nil
		return err
	}
	st.loaded = true
	return nil
}

// readManifest parses a spec's manifest. legacy reports a manifest
// whose run list was the XML listing rather than its own entries: one
// written before frames became the only copy of a run (version 1 or
// 2), or a lost one of such a repository.
func (s *Store) readManifest(specName string) (m *snapManifest, legacy bool, err error) {
	empty := func() *snapManifest {
		m := &snapManifest{Version: manifestVersion, Runs: map[string]snapEntry{}}
		if fi, err := s.be.Stat(segmentKey(specName)); err == nil {
			m.Dead = fi.Size
		}
		return m
	}
	data, err := s.be.ReadFile(manifestKey(specName))
	if isNotExist(err) {
		// Every commit after the first saves over an existing manifest,
		// so a ledger past its first batch proves one was lost; only a
		// legacy repository's run documents can rebuild it.
		recs, err := s.readLedger(specName)
		if err != nil {
			return nil, false, fmt.Errorf("store: spec %q: reading ledger: %w", specName, err)
		}
		if len(recs) <= 1 {
			return empty(), false, nil
		}
		docs, err := s.be.List(legacyRunsDir(specName))
		if err != nil {
			return nil, false, fmt.Errorf("store: spec %q: %w", specName, err)
		}
		if len(docs) == 0 {
			return nil, false, fmt.Errorf("store: spec %q: manifest missing although the ledger attests %d batches", specName, len(recs))
		}
		return empty(), true, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: spec %q: reading manifest: %v", specName, err)
	}
	m = &snapManifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, false, fmt.Errorf("store: spec %q: corrupt manifest: %v", specName, err)
	}
	switch m.Version {
	case 1:
		return empty(), true, nil
	case 2, manifestVersion:
		legacy = m.Version == 2
		m.Version = manifestVersion
		if m.Runs == nil {
			m.Runs = map[string]snapEntry{}
		}
		return m, legacy, nil
	}
	return nil, false, fmt.Errorf("store: spec %q: manifest version %d, want %d", specName, m.Version, manifestVersion)
}

// legacyRunsDir is where repositories written before frames became
// the only copy kept one XML document per run.
func legacyRunsDir(specName string) string { return specName + "/runs" }

// migrateLegacyLocked converts a repository written in the older
// layout, which kept every run twice (<spec>/runs/<run>.xml plus a
// frame): every leftover document is parsed and committed through the
// normal batch path, then removed. A frame identical to one already
// live is deduped, so migration costs a parse and a ledger record per
// spec, not a rewrite. Under a legacy manifest the documents were the
// run list, so entries without one are dropped. Interrupted
// migrations resume on the next load: commits are idempotent and the
// documents go only after the commit. Caller holds st.mu.
func (s *Store) migrateLegacyLocked(specName string, st *snapState, legacy bool) error {
	entries, err := s.be.List(legacyRunsDir(specName))
	if err != nil {
		return fmt.Errorf("store: spec %q: %w", specName, err)
	}
	var names []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name, ".xml"); ok && !e.Dir {
			names = append(names, name)
		}
	}
	if len(names) == 0 && !legacy {
		return nil
	}
	var items []snapBatchItem
	if len(names) > 0 {
		sp, err := s.LoadSpec(specName)
		if err != nil {
			return err
		}
		for _, name := range names {
			data, err := s.be.ReadFile(legacyRunKey(specName, name))
			if err != nil {
				return fmt.Errorf("store: spec %q: migrating run %q: %w", specName, name, err)
			}
			r, err := wfxml.DecodeRun(bytes.NewReader(data), sp)
			if err != nil {
				return fmt.Errorf("store: spec %q: migrating run %q: %w", specName, name, err)
			}
			items = append(items, snapBatchItem{name: name, run: r})
		}
	}
	if legacy {
		keep := make(map[string]bool, len(names))
		for _, name := range names {
			keep[name] = true
		}
		for name, e := range st.manifest.Runs {
			if !keep[name] {
				delete(st.manifest.Runs, name)
				st.manifest.Dead += e.Length
				st.manifest.Live -= e.Length
			}
		}
	}
	if len(items) == 0 {
		return s.saveManifestLocked(specName, st)
	}
	s.loadLedgerLocked(specName, st)
	if _, err := s.commitLocked(specName, st, items); err != nil {
		return err
	}
	for _, it := range items {
		if err := s.be.Remove(legacyRunKey(specName, it.name)); err != nil && !isNotExist(err) {
			return fmt.Errorf("store: spec %q: %w", specName, err)
		}
	}
	return nil
}

func legacyRunKey(specName, runName string) string {
	return legacyRunsDir(specName) + "/" + runName + ".xml"
}

// saveManifestLocked writes the manifest atomically and durably (the
// backend's WriteFile contract). Caller holds st.mu.
func (s *Store) saveManifestLocked(specName string, st *snapState) error {
	data, err := json.MarshalIndent(st.manifest, "", "  ")
	if err != nil {
		return err
	}
	return s.be.WriteFile(manifestKey(specName), append(data, '\n'))
}

// manifestEntry returns a run's manifest entry; a run with none is an
// error satisfying errors.Is(err, fs.ErrNotExist).
func (s *Store) manifestEntry(specName, runName string) (snapEntry, error) {
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.loadManifestLocked(specName, st); err != nil {
		return snapEntry{}, err
	}
	e, ok := st.manifest.Runs[runName]
	if !ok {
		return snapEntry{}, fmt.Errorf("store: unknown run %q of %q: %w", runName, specName, notExist("load", runName))
	}
	return e, nil
}

// hasRun reports whether a run is stored.
func (s *Store) hasRun(specName, runName string) bool {
	_, err := s.manifestEntry(specName, runName)
	return err == nil
}

// segmentRecord frames one run inside the segment file: the run name,
// length-prefixed, followed by the codec frame. The name is part of
// the record so a reader can never mistake one run's frame for
// another's — a reader racing a compaction may land its stale offset
// on a different, equal-length record whose checksum verifies, and
// only the embedded name catches that.
func segmentRecord(runName string, frame []byte) []byte {
	out := binary.AppendUvarint(make([]byte, 0, len(runName)+len(frame)+binary.MaxVarintLen32), uint64(len(runName)))
	out = append(out, runName...)
	return append(out, frame...)
}

// parseSegmentRecord splits a record into its run name and frame.
func parseSegmentRecord(buf []byte) (runName string, frame []byte, err error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 || n > uint64(len(buf)-w) {
		return "", nil, fmt.Errorf("store: malformed segment record header")
	}
	return string(buf[w : w+int(n)]), buf[w+int(n):], nil
}

// readFrame reads a manifest entry's segment record and returns its
// frame, checking that the record names this very run: a reader
// racing a compaction may land its stale offset on a different,
// equal-length record whose checksum verifies, and only the embedded
// name catches that.
func (s *Store) readFrame(specName, runName string, e snapEntry) ([]byte, error) {
	buf := make([]byte, e.Length)
	if err := s.be.ReadAt(segmentKey(specName), buf, e.Offset); err != nil {
		// Not wrapped: a listed run whose frame is unreadable is damage,
		// not a missing run.
		return nil, fmt.Errorf("reading segment: %v", err)
	}
	name, frame, err := parseSegmentRecord(buf)
	if err != nil {
		return nil, err
	}
	if name != runName {
		return nil, fmt.Errorf("segment record at offset %d holds run %q", e.Offset, name)
	}
	return frame, nil
}

// loadRunFrame decodes a stored run from its segment frame. A frame
// that is not where the manifest says is looked for again by content
// (relocatedEntry): a compaction may have moved it since the manifest
// lookup, or crashed after rewriting the segment but before saving
// the manifest that records the new offsets. Any other failure (a
// checksum mismatch, a frame from another codec version) is an error
// naming the run and the batch that committed it.
func (s *Store) loadRunFrame(specName, runName string, sp *spec.Spec) (*wfrun.Run, error) {
	e, err := s.manifestEntry(specName, runName)
	if err != nil {
		return nil, err
	}
	r, ferr := s.decodeFrame(specName, runName, e, sp)
	if ferr == nil {
		return r, nil
	}
	again, err := s.relocatedEntry(specName, runName)
	if err != nil {
		return nil, err
	}
	if again != e {
		if r, ferr = s.decodeFrame(specName, runName, again, sp); ferr == nil {
			return r, nil
		}
	}
	return nil, fmt.Errorf("store: run %q of %q (batch %d): %v", runName, specName, e.Batch, ferr)
}

func (s *Store) decodeFrame(specName, runName string, e snapEntry, sp *spec.Spec) (*wfrun.Run, error) {
	frame, err := s.readFrame(specName, runName, e)
	if err != nil {
		return nil, err
	}
	return codec.DecodeRun(frame, sp)
}

// relocatedEntry returns a run's current manifest entry. When that
// entry's frame is not intact where it points, every entry is matched
// against the frames actually in the segment by run name and content
// hash, moved to where its frame now lives, and the repaired manifest
// saved — the recovery from a compaction that crashed between its
// segment rewrite and its manifest save.
func (s *Store) relocatedEntry(specName, runName string) (snapEntry, error) {
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.loadManifestLocked(specName, st); err != nil {
		return snapEntry{}, err
	}
	e, ok := st.manifest.Runs[runName]
	if !ok {
		return snapEntry{}, fmt.Errorf("store: unknown run %q of %q: %w", runName, specName, notExist("load", runName))
	}
	if s.segmentFrameIntact(specName, runName, e) {
		return e, nil
	}
	seg, err := s.be.ReadFile(segmentKey(specName))
	if err != nil {
		return e, nil // the caller reports the original failure
	}
	found := scanSegment(seg)
	moved := false
	for name, old := range st.manifest.Runs {
		if old.Offset >= 0 && old.Offset+old.Length <= int64(len(seg)) &&
			recordHolds(seg[old.Offset:old.Offset+old.Length], name, old.Hash) {
			continue
		}
		if loc, ok := found[name][old.Hash]; ok {
			old.Offset, old.Length = loc.Offset, loc.Length
			st.manifest.Runs[name] = old
			moved = true
		}
	}
	if moved {
		st.manifest.Live = 0
		for _, e := range st.manifest.Runs {
			st.manifest.Live += e.Length
		}
		st.manifest.Dead = int64(len(seg)) - st.manifest.Live
		_ = s.saveManifestLocked(specName, st) // the next load repeats the repair if this fails
	}
	return st.manifest.Runs[runName], nil
}

// snapBatchItem is one run of a batched commit.
type snapBatchItem struct {
	name string
	run  *wfrun.Run
}

// writeRunSnapshotBatch commits runs in one pass: frames are encoded
// up front, the segment grows by ONE synced backend append, and the
// manifest is rewritten once however many runs the batch carries —
// the group-commit durability point of every write path (import,
// SaveRun, live completion, legacy migration).
//
// The batch is also one ledger record: every item's frame content
// hash becomes a Merkle leaf, the batch root is chained onto the
// spec's ledger head, and the record is appended to ledger.log before
// the manifest commits to it. The write order — segment (synced),
// ledger (synced), manifest (durable) — means a crash at any boundary
// leaves the previous manifest pointing at still-valid append-only
// state.
//
// A run whose name AND frame hash match its live manifest entry is
// deduped: the old segment bytes are reused (valid forever under
// append-only + compaction-of-live), no new frame is written, and the
// run is simply re-attested in the new batch record. Bulk re-imports
// of identical runs therefore cost hashing, not segment growth.
//
// The committed runs are published to the decoded-run cache before
// the state lock is released, so the cache follows the manifest's
// commit order even when commits of one run race.
//
// Returns the hex content hash of each item's frame, aligned with
// items. On error nothing the batch carries is visible.
func (s *Store) writeRunSnapshotBatch(specName string, items []snapBatchItem) ([]string, error) {
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.loadManifestLocked(specName, st); err != nil {
		return nil, err
	}
	s.loadLedgerLocked(specName, st)
	hashes, err := s.commitLocked(specName, st, items)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	for _, it := range items {
		s.runs[runKey(specName, it.name)] = it.run
	}
	s.mu.Unlock()
	return hashes, nil
}

// commitLocked is writeRunSnapshotBatch with the manifest and ledger
// cursor already loaded. Caller holds st.mu.
func (s *Store) commitLocked(specName string, st *snapState, items []snapBatchItem) ([]string, error) {
	records := make([][]byte, len(items))
	hashes := make([]string, len(items))
	leafs := make([]ledger.BatchLeaf, len(items))
	for i, it := range items {
		frame, err := codec.EncodeRun(it.run)
		if err != nil {
			return nil, err
		}
		h := codec.ContentHash(frame)
		hashes[i] = hex.EncodeToString(h[:])
		leafs[i] = ledger.BatchLeaf{Run: it.name, Hash: hashes[i]}
		records[i] = segmentRecord(it.name, frame)
	}
	var off int64
	if fi, err := s.be.Stat(segmentKey(specName)); err == nil {
		off = fi.Size
	}
	var seg bytes.Buffer
	entries := make([]snapEntry, len(items))
	for i, it := range items {
		if old, ok := st.manifest.Runs[it.name]; ok && old.Codec == codec.Version && old.Hash == hashes[i] &&
			s.segmentFrameIntact(specName, it.name, old) {
			// Dedup: identical frame already live (and verified intact)
			// in the segment.
			entries[i] = old
			continue
		}
		entries[i] = snapEntry{
			Offset: off + int64(seg.Len()),
			Length: int64(len(records[i])),
			Codec:  codec.Version,
			Nodes:  it.run.NumNodes(),
			Edges:  it.run.NumEdges(),
			Hash:   hashes[i],
		}
		seg.Write(records[i])
	}
	if seg.Len() > 0 {
		if err := s.be.Append(segmentKey(specName), seg.Bytes(), true); err != nil {
			return nil, err
		}
	}
	rec, err := ledger.NewRecord(st.ledgerSeq+1, st.ledgerHead, leafs)
	if err != nil {
		return nil, err
	}
	line, err := ledger.MarshalRecord(rec)
	if err != nil {
		return nil, err
	}
	if err := s.be.Append(ledgerKey(specName), line, true); err != nil {
		// The append may have left a torn fragment: reload the cursor
		// (which truncates it) before the next commit appends.
		st.ledgerLoaded = false
		return nil, err
	}
	st.ledgerSeq = rec.Seq
	st.ledgerHead, _ = ledger.Parse(rec.Head)
	prev := *st.manifest
	prevRuns := make(map[string]snapEntry, len(items))
	for i, it := range items {
		old, had := st.manifest.Runs[it.name]
		if had {
			prevRuns[it.name] = old
			if old.Offset != entries[i].Offset {
				st.manifest.Dead += old.Length
				st.manifest.Live -= old.Length
			}
		}
		if !had || old.Offset != entries[i].Offset {
			st.manifest.Live += entries[i].Length
		}
		e := entries[i]
		e.Batch = rec.Seq
		st.manifest.Runs[it.name] = e
	}
	if err := s.saveManifestLocked(specName, st); err != nil {
		// Roll the in-memory manifest back to what is on disk.
		for _, it := range items {
			if old, had := prevRuns[it.name]; had {
				st.manifest.Runs[it.name] = old
			} else {
				delete(st.manifest.Runs, it.name)
			}
		}
		st.manifest.Live, st.manifest.Dead = prev.Live, prev.Dead
		return nil, err
	}
	// Compaction is housekeeping: the batch is committed whether or not
	// it succeeds, and the next manifest save retries it.
	_ = s.maybeCompactLocked(specName, st)
	return hashes, nil
}

// segmentFrameIntact re-reads a manifest entry's segment record and
// checks it still carries this run's frame with the recorded content
// hash — the guard that keeps dedup from re-attesting bytes that were
// corrupted or lost since the entry was written. A reused entry is
// therefore always backed by verified bytes; a failed check simply
// costs a fresh append.
func (s *Store) segmentFrameIntact(specName, runName string, e snapEntry) bool {
	buf := make([]byte, e.Length)
	return s.be.ReadAt(segmentKey(specName), buf, e.Offset) == nil && recordHolds(buf, runName, e.Hash)
}

// recordHolds reports whether a segment record carries runName's frame
// with the given content hash.
func recordHolds(rec []byte, runName, hash string) bool {
	name, frame, err := parseSegmentRecord(rec)
	if err != nil || name != runName {
		return false
	}
	h := codec.ContentHash(frame)
	return hex.EncodeToString(h[:]) == hash
}

// readLedger loads a spec's ledger log through the backend — the
// byte-level twin of ledger.ReadLog.
func (s *Store) readLedger(specName string) ([]ledger.Record, error) {
	data, err := s.be.ReadFile(ledgerKey(specName))
	if err != nil {
		if isNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	recs, _, perr := ledger.ParseLog(data)
	return recs, perr
}

// loadLedgerLocked positions the append cursor at the tail of the
// spec's ledger log — and repairs a torn tail first. A crash mid-
// append leaves a partial final line; readers tolerate it, but a
// subsequent append would weld new bytes onto the torn fragment,
// merging them into one malformed MIDDLE line that VerifyLedger can
// no longer tell from tampering. Truncating back to the valid prefix
// before any further append keeps crash debris and tampering
// distinguishable. A malformed interior line is NOT repaired here —
// appends continue from the last parseable record and VerifyLedger is
// the one to report the damage. Caller holds st.mu.
func (s *Store) loadLedgerLocked(specName string, st *snapState) {
	if st.ledgerLoaded {
		return
	}
	st.ledgerLoaded = true
	data, err := s.be.ReadFile(ledgerKey(specName))
	if err != nil {
		return
	}
	recs, valid, perr := ledger.ParseLog(data)
	if perr == nil && valid < len(data) {
		// Torn tail from a crashed append: truncate to the valid prefix.
		_ = s.be.WriteFile(ledgerKey(specName), data[:valid])
	}
	if len(recs) == 0 {
		return
	}
	last := recs[len(recs)-1]
	st.ledgerSeq = last.Seq
	st.ledgerHead, _ = ledger.Parse(last.Head)
}

// dropRun removes a run's manifest entry and its cached decode — the
// whole of a delete. The frame bytes become dead weight until
// compaction. A run with no entry is an error satisfying
// errors.Is(err, fs.ErrNotExist).
func (s *Store) dropRun(specName, runName string) error {
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.loadManifestLocked(specName, st); err != nil {
		return err
	}
	e, ok := st.manifest.Runs[runName]
	if !ok {
		return fmt.Errorf("store: unknown run %q of %q: %w", runName, specName, notExist("remove", runName))
	}
	delete(st.manifest.Runs, runName)
	st.manifest.Dead += e.Length
	st.manifest.Live -= e.Length
	if err := s.saveManifestLocked(specName, st); err != nil {
		st.manifest.Runs[runName] = e
		st.manifest.Dead -= e.Length
		st.manifest.Live += e.Length
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	delete(s.runs, runKey(specName, runName))
	s.mu.Unlock()
	_ = s.maybeCompactLocked(specName, st) // housekeeping, as in commitLocked
	return nil
}

// maybeCompactLocked rewrites the segment without dead frames once
// they dominate. Caller holds st.mu.
func (s *Store) maybeCompactLocked(specName string, st *snapState) error {
	m := st.manifest
	if m.Dead < compactMinDeadBytes || float64(m.Dead) < compactMinDeadRatio*float64(m.Dead+m.Live) {
		return nil
	}
	return s.compactLocked(specName, st)
}

// Compact rewrites a spec's snapshot segment without its dead bytes
// now, regardless of the automatic thresholds — an operational lever
// (and test hook) over the same code path the thresholds trigger.
// The ledger is untouched: compaction moves live frames, it does not
// change them, so every inclusion proof survives byte-for-byte.
func (s *Store) Compact(specName string) error {
	if err := ValidateName(specName); err != nil {
		return err
	}
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.loadManifestLocked(specName, st); err != nil {
		return err
	}
	if _, err := s.be.Stat(segmentKey(specName)); err != nil {
		if isNotExist(err) {
			return nil // nothing stored yet
		}
		return err
	}
	return s.compactLocked(specName, st)
}

// compactLocked is the segment rewrite itself. Caller holds st.mu. A
// reader that raced the atomic replacement sees offsets that no
// longer line up — the record it lands on either fails the frame
// checksum or names a different run — and retries against the
// updated entry (loadRunFrame); compaction needs no reader
// coordination.
func (s *Store) compactLocked(specName string, st *snapState) error {
	m := st.manifest
	old, err := s.be.ReadFile(segmentKey(specName))
	if err != nil {
		return err
	}
	fresh := make(map[string]snapEntry, len(m.Runs))
	var out bytes.Buffer
	for name, e := range m.Runs {
		if e.Offset < 0 || e.Offset+e.Length > int64(len(old)) {
			return fmt.Errorf("store: segment entry %q out of bounds", name)
		}
		rec := old[e.Offset : e.Offset+e.Length]
		e.Offset = int64(out.Len())
		out.Write(rec)
		fresh[name] = e
	}
	if err := s.be.WriteFile(segmentKey(specName), out.Bytes()); err != nil {
		return err
	}
	m.Runs = fresh
	m.Live = int64(out.Len())
	m.Dead = 0
	return s.saveManifestLocked(specName, st)
}

// writeSpecSnapshot persists the binary spec frame.
func (s *Store) writeSpecSnapshot(specName string, sp *spec.Spec) error {
	return s.be.WriteFile(specBinKey(specName), codec.EncodeSpec(sp))
}

// loadSpecSnapshot attempts to decode spec.bin, a cache of spec.xml:
// specifications change so rarely that the guard is simply "spec.xml
// must not be newer than spec.bin".
func (s *Store) loadSpecSnapshot(specName string) (*spec.Spec, bool) {
	binInfo, err := s.be.Stat(specBinKey(specName))
	if err != nil {
		return nil, false
	}
	xmlInfo, err := s.be.Stat(specXMLKey(specName))
	if err != nil || xmlInfo.ModTime.After(binInfo.ModTime) {
		return nil, false
	}
	data, err := s.be.ReadFile(specBinKey(specName))
	if err != nil {
		return nil, false
	}
	sp, err := codec.DecodeSpec(data)
	if err != nil {
		return nil, false
	}
	return sp, true
}

// SnapshotStats reports what a Snapshot pass found.
type SnapshotStats struct {
	Runs      int // stored runs
	LiveBytes int64
	DeadBytes int64
}

// Snapshot brings one specification's snapshot layer up to date: it
// writes the spec's binary frame and loads the manifest, which
// migrates a repository written in the older layout. On a
// current-format repository it writes no run frames; it is idempotent.
func (s *Store) Snapshot(specName string) (SnapshotStats, error) {
	var stats SnapshotStats
	sp, err := s.LoadSpec(specName)
	if err != nil {
		return stats, err
	}
	if err := s.writeSpecSnapshot(specName, sp); err != nil {
		return stats, err
	}
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.loadManifestLocked(specName, st); err != nil {
		return stats, err
	}
	stats.Runs = len(st.manifest.Runs)
	stats.LiveBytes = st.manifest.Live
	stats.DeadBytes = st.manifest.Dead
	return stats, nil
}

// PreloadStats reports what a Preload pass loaded.
type PreloadStats struct {
	Spec string
	Runs int
}

// Preload warms the in-memory caches of one specification: the spec
// itself plus every stored run, decoded from its frame. After Preload
// returns, LoadRun and the cohort paths serve existing runs from
// memory.
func (s *Store) Preload(specName string) (PreloadStats, error) {
	stats := PreloadStats{Spec: specName}
	sp, err := s.LoadSpec(specName)
	if err != nil {
		return stats, err
	}
	names, err := s.ListRuns(specName)
	if err != nil {
		return stats, err
	}
	stats.Runs = len(names)
	for _, name := range names {
		s.mu.RLock()
		_, cached := s.runs[runKey(specName, name)]
		s.mu.RUnlock()
		if cached {
			continue
		}
		r, err := s.loadRunFrame(specName, name, sp)
		if err != nil {
			return stats, err
		}
		s.cacheRun(specName, name, r)
	}
	return stats, nil
}

// PreloadAll preloads every specification in the repository — the
// warm-start path provserved runs at boot. Specs are isolated from
// each other: one spec's damaged run costs only that spec its warmth,
// the rest still preload; the joined error reports every failure
// alongside the stats of what did load.
func (s *Store) PreloadAll() ([]PreloadStats, error) {
	specs, err := s.ListSpecs()
	if err != nil {
		return nil, err
	}
	out := make([]PreloadStats, 0, len(specs))
	var errs []error
	for _, name := range specs {
		st, err := s.Preload(name)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out = append(out, st)
	}
	return out, errors.Join(errs...)
}
