package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/ledger"
	"repro/internal/spec"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// The snapshot layer is where runs are stored. Each run is one
// checksummed codec frame in an append-only segment, and every commit
// is one record in the spec's Merkle ledger naming each run and frame
// hash of its batch. The ledger is the commit log; manifest.json is a
// checkpoint of the run index (run name → frame) as of one ledger seq.
// XML is what the store imports and exports, not what it keeps:
// ExportSpec renders it with wfxml.EncodeRun.
//
// Layout, per specification (backend keys):
//
//	<spec>/snapshot/manifest.json   checkpoint: run name → frame (offset, length, hash, batch) as of ledger seq
//	<spec>/snapshot/runs.seg        append-only run frames
//	<spec>/snapshot/ledger.log      Merkle ledger, one record per commit
//
// A commit is exactly two synced appends, segment then ledger; once
// its ledger record is durable the batch is committed. Loading a spec
// reads the checkpoint and replays the ledger batches after its seq
// (parsing the ledger from its end back to that seq only), finding each replayed frame in the segment by run name and content
// hash (segment records name themselves). The checkpoint is written at
// a spec's first commit, on every delete (deletes are not in the
// ledger), at compaction, legacy migration and frame relocation, and
// by Snapshot when the ledger is ahead of it.
//
// Every stored frame equals codec.EncodeRun of the run that parsing
// the run's canonical XML produces, so export followed by re-import
// reproduces the frame byte for byte. Deleting or re-importing a run
// drops or replaces its entry; the dead bytes stay in the segment until
// the compaction threshold is crossed, as in a log-structured store.
//
// A corrupt frame, checkpoint or ledger is an error, never a silent
// miss: the segment holds the only copy of each run.

// manifestVersion guards the checkpoint JSON schema itself. Version 4
// added seq, the last ledger batch the checkpoint covers. Version 3
// and 2 manifests were saved after every commit, so they cover the
// whole ledger; version 2 also carried XML fingerprints and is
// upgraded in place on first load. A version-1 manifest (no content
// hashes) is discarded: its repository still keeps every run as XML,
// which the legacy migration re-commits.
const manifestVersion = 4

// compactMinDeadBytes and compactMinDeadRatio bound segment garbage:
// a commit or delete triggers compaction once the segment holds at least
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
	// Hash is the hex SHA-256 content hash of the codec frame (the
	// frame's ledger identity); Batch is the seq of the ledger record
	// that most recently committed it.
	Hash  string `json:"hash"`
	Batch int64  `json:"batch"`
}

// snapManifest is a spec's run index. On disk (snapshot/manifest.json)
// it is a checkpoint covering the ledger up to Seq. In memory its runs
// cover every committed batch, while Version and Seq describe the
// checkpoint on disk: Version is 0 when there is none. Live and Dead
// (segment bytes referenced and not) are in memory only; every load
// recomputes them from the entries and the segment's size.
type snapManifest struct {
	Version int                  `json:"version"`
	Seq     int64                `json:"seq"`
	Live    int64                `json:"-"`
	Dead    int64                `json:"-"`
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
	// version is the run-set version (Store.RunsVersion). It advances
	// under mu and is read without it.
	version atomic.Uint64
}

// Snapshot-layer backend keys.
func manifestKey(specName string) string { return specName + "/snapshot/manifest.json" }
func segmentKey(specName string) string  { return specName + "/snapshot/runs.seg" }
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

// loadManifestLocked loads a spec's run index on first use: the
// checkpoint, then the ledger batches after it (replay), then
// any legacy run documents (migrateLegacyLocked). A missing checkpoint
// is an empty index while the ledger holds at most one batch: the spec
// has no committed runs yet, and whatever the segment holds (a crashed
// first commit) is counted dead. A checkpoint that cannot be parsed,
// or is missing although the ledger attests later batches, is an error
// naming the spec, and stays one on every later call: deletes are not
// in the ledger, so replaying it from the start could resurrect them.
// Caller holds st.mu.
func (s *Store) loadManifestLocked(specName string, st *snapState) error {
	if st.loaded {
		return nil
	}
	ledgerLog, err := s.loadLedgerLocked(specName, st)
	if err != nil {
		return err
	}
	m, legacy, err := s.readManifest(specName, st.ledgerSeq)
	if err != nil {
		return damaged(err)
	}
	recs, _, err := ledgerTail(ledgerLog, m.Seq)
	if err != nil {
		return damaged(fmt.Errorf("store: spec %q: %w", specName, err))
	}
	if err := s.replay(specName, m, recs); err != nil {
		return damaged(err)
	}
	st.manifest = m
	if err := s.migrateLegacyLocked(specName, st, legacy); err != nil {
		st.manifest = nil
		return err
	}
	st.loaded = true
	return nil
}

// readManifest parses a spec's checkpoint against last, the seq of its
// ledger's last batch. An older manifest version covers the ledger
// only until the next commit, which replaces it with a checkpoint
// first. legacy reports a manifest whose run list was the XML listing
// rather than its own entries: one written before frames became the
// only copy of a run (version 1 or 2), or a lost one of such a
// repository. Every error it returns means the checkpoint or the
// ledger is damaged, and loadManifestLocked marks it ErrDamaged.
func (s *Store) readManifest(specName string, last int64) (m *snapManifest, legacy bool, err error) {
	empty := func() *snapManifest {
		return &snapManifest{Seq: last, Runs: map[string]snapEntry{}}
	}
	data, err := s.be.ReadFile(manifestKey(specName))
	if isNotExist(err) {
		if last <= 1 {
			return empty(), false, nil
		}
		// A spec's first commit writes the checkpoint, so a ledger past
		// its first batch proves one was lost; only a legacy
		// repository's run documents can rebuild it.
		docs, err := s.be.List(legacyRunsDir(specName))
		if err != nil {
			return nil, false, fmt.Errorf("store: spec %q: %w", specName, err)
		}
		if len(docs) == 0 {
			return nil, false, fmt.Errorf("store: spec %q: manifest missing although the ledger attests %d batches", specName, last)
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
	case 2, 3:
		legacy = m.Version == 2
		m.Seq = last
	case manifestVersion:
		if m.Seq < 0 || m.Seq > last {
			return nil, false, fmt.Errorf("store: spec %q: manifest covers ledger batch %d, but the ledger ends at batch %d", specName, m.Seq, last)
		}
	default:
		return nil, false, fmt.Errorf("store: spec %q: manifest version %d, want %d", specName, m.Version, manifestVersion)
	}
	if m.Runs == nil {
		m.Runs = map[string]snapEntry{}
	}
	return m, legacy, nil
}

// replay brings a freshly read checkpoint m up to the ledger tail;
// recs are the ledger records after its seq. Only the last attestation
// of each run matters — an earlier frame of the same run may already have been
// compacted away. A run whose entry already carries that frame's hash
// (the dedup case) keeps its entry; every other run is found by one
// scan of the segment. A frame the segment does not hold gets an entry
// that points nowhere, so loading the run fails naming its batch and
// VerifyLedger reports it. Live and dead byte counts are recomputed
// from the segment's size, so the bytes of a commit whose ledger append
// never landed count as dead. loadManifestLocked marks its errors
// ErrDamaged.
func (s *Store) replay(specName string, m *snapManifest, recs []ledger.Record) error {
	type attest struct {
		hash  string
		batch int64
	}
	final := map[string]attest{}
	for _, rec := range recs {
		for _, l := range rec.Runs {
			final[l.Run] = attest{l.Hash, rec.Seq}
		}
	}
	var found map[string]map[string]segLoc
	for name, a := range final {
		e, ok := m.Runs[name]
		if !ok || e.Hash != a.hash {
			if found == nil {
				seg, err := s.be.ReadFile(segmentKey(specName))
				if err != nil && !isNotExist(err) {
					return fmt.Errorf("store: spec %q: replaying ledger: %w", specName, err)
				}
				found = scanSegment(seg)
			}
			e = snapEntry{Offset: -1, Codec: codec.Version, Hash: a.hash}
			if loc, ok := found[name][a.hash]; ok {
				e.Offset, e.Length = loc.Offset, loc.Length
			}
		}
		e.Batch = a.batch
		m.Runs[name] = e
	}
	var size int64
	if fi, err := s.be.Stat(segmentKey(specName)); err == nil {
		size = fi.Size
	} else if !isNotExist(err) {
		return fmt.Errorf("store: spec %q: %w", specName, err)
	}
	m.Live = 0
	for _, e := range m.Runs {
		m.Live += e.Length
	}
	m.Dead = max(0, size-m.Live)
	return nil
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
	if len(items) > 0 {
		if _, err := s.commitLocked(specName, st, items); err != nil {
			return err
		}
	}
	// The checkpoint replaces the legacy manifest before any document
	// goes: read again under a legacy manifest, the documents are the
	// run list.
	if err := s.saveManifestLocked(specName, st); err != nil {
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

// saveManifestLocked writes the in-memory run index as the checkpoint
// covering the whole ledger, atomically and durably (the backend's
// WriteFile contract). Caller holds st.mu with the ledger cursor
// loaded.
func (s *Store) saveManifestLocked(specName string, st *snapState) error {
	m := *st.manifest
	m.Version, m.Seq = manifestVersion, st.ledgerSeq
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	if err := s.be.WriteFile(manifestKey(specName), append(data, '\n')); err != nil {
		return err
	}
	st.manifest.Version, st.manifest.Seq = m.Version, m.Seq
	return nil
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
// lookup, or crashed after rewriting the segment but before writing
// the checkpoint that records the new offsets. Any other failure (a
// checksum mismatch, a frame from another codec version) is an error
// naming the run and the batch that committed it.
func (s *Store) loadRunFrame(specName, runName string, sp *spec.Spec) (cachedRun, error) {
	e, err := s.manifestEntry(specName, runName)
	if err != nil {
		return cachedRun{}, err
	}
	r, ferr := s.decodeFrame(specName, runName, e, sp)
	if ferr == nil {
		return cachedRun{r, e.Hash}, nil
	}
	again, err := s.relocatedEntry(specName, runName)
	if err != nil {
		return cachedRun{}, err
	}
	if again != e {
		if r, ferr = s.decodeFrame(specName, runName, again, sp); ferr == nil {
			return cachedRun{r, again.Hash}, nil
		}
	}
	return cachedRun{}, damaged(fmt.Errorf("store: run %q of %q (batch %d): %v", runName, specName, e.Batch, ferr))
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
// hash, moved to where its frame now lives, and the repaired index
// checkpointed — the recovery from a compaction that crashed between
// its segment rewrite and its checkpoint.
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
// ledger by ONE synced record, however many runs the batch carries —
// the group-commit durability point of every write path (import,
// SaveRun, live completion, legacy migration). Nothing else is written
// per commit: the run index on disk is a checkpoint, and a later load
// replays this batch from the ledger.
//
// The ledger record makes every item's frame content hash a Merkle
// leaf, and chains the batch root onto the spec's ledger head. The
// write order — segment, then ledger — means a crash before the ledger
// record is durable leaves the batch's frames as dead segment bytes,
// and a crash after it leaves a committed batch that the next load
// replays.
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
	hashes, err := s.commitLocked(specName, st, items)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	for i, it := range items {
		s.runs[runKey(specName, it.name)] = cachedRun{it.run, hashes[i]}
	}
	s.mu.Unlock()
	st.version.Add(1)
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
	if st.manifest.Version != manifestVersion {
		// A spec's first commit writes the checkpoint before its
		// appends, so a checkpoint missing past the first batch is
		// damage (readManifest), never a crash.
		if err := s.saveManifestLocked(specName, st); err != nil {
			return nil, err
		}
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
		// Whether the record landed is unknown (the append may also
		// have left a torn fragment), so the index is reloaded from
		// disk before its next use — the reload truncates any torn
		// tail and replays the record if it is whole — and the batch's
		// names leave the decoded-run cache. The run set may change
		// with that reload, so its version advances now.
		st.loaded, st.ledgerLoaded = false, false
		st.version.Add(1)
		s.mu.Lock()
		for _, it := range items {
			delete(s.runs, runKey(specName, it.name))
		}
		s.mu.Unlock()
		return nil, err
	}
	st.ledgerSeq = rec.Seq
	st.ledgerHead, _ = ledger.Parse(rec.Head)
	m := st.manifest
	for i, it := range items {
		old, had := m.Runs[it.name]
		if had && old.Offset != entries[i].Offset {
			m.Dead += old.Length
			m.Live -= old.Length
		}
		if !had || old.Offset != entries[i].Offset {
			m.Live += entries[i].Length
		}
		e := entries[i]
		e.Batch = rec.Seq
		m.Runs[it.name] = e
	}
	// Compaction is housekeeping: the batch is committed whether or not
	// it succeeds, and the next commit or delete retries it.
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

// readLedger loads a spec's ledger log through the backend; a spec
// with no ledger yet has no records.
func (s *Store) readLedger(specName string) ([]ledger.Record, error) {
	data, err := s.be.ReadFile(ledgerKey(specName))
	if err != nil {
		if isNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return ledger.ParseLog(data)
}

// loadLedgerLocked reads the spec's ledger log, positions the append
// cursor at its last record and returns the log — and repairs a torn
// tail first (truncateTornTail). A crash mid-append leaves a partial
// final line; readers tolerate it, but welded onto by the next append
// it would become a malformed middle line that VerifyLedger can no
// longer tell from tampering. A log that cannot be read or repaired, or
// whose last record cannot be parsed, is an error naming the spec, and
// the cursor stays unloaded: appending after it would fork the chain.
// Caller holds st.mu.
func (s *Store) loadLedgerLocked(specName string, st *snapState) ([]byte, error) {
	data, err := s.be.ReadFile(ledgerKey(specName))
	if err != nil && !isNotExist(err) {
		return nil, damaged(fmt.Errorf("store: spec %q: reading ledger: %w", specName, err))
	}
	if data, err = truncateTornTail(s.be, ledgerKey(specName), data); err != nil {
		return nil, fmt.Errorf("store: spec %q: truncating torn ledger tail: %w", specName, err)
	}
	_, last, err := ledgerTail(data, math.MaxInt64)
	if err != nil {
		return nil, damaged(fmt.Errorf("store: spec %q: %w", specName, err))
	}
	st.ledgerSeq, st.ledgerHead = last.Seq, ledger.Zero
	if last.Seq > 0 {
		st.ledgerHead, _ = ledger.Parse(last.Head)
	}
	st.ledgerLoaded = true
	return data, nil
}

// ledgerTail parses a ledger log from its end back to the first record
// at or before seq after. It returns the records after that seq, in log
// order, and the log's last record (zero for an empty log). A load
// thus parses only the batches its checkpoint does not cover;
// VerifyLedger is what reads every line.
func ledgerTail(data []byte, after int64) (recs []ledger.Record, last ledger.Record, err error) {
	found := false
	for end := len(data); end > 0; {
		start := bytes.LastIndexByte(data[:end-1], '\n') + 1
		line := data[start:end]
		end = start
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec ledger.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			lineNo := bytes.Count(data[:start], []byte{'\n'}) + 1
			return nil, last, fmt.Errorf("ledger: record at line %d malformed: %w", lineNo, err)
		}
		if !found {
			last, found = rec, true
		}
		if rec.Seq <= after {
			break
		}
		recs = append(recs, rec)
	}
	slices.Reverse(recs)
	return recs, last, nil
}

// dropRun removes a run's manifest entry and its cached decode, and
// checkpoints the index: deletes are not in the ledger, so the
// checkpoint is what keeps a replay from resurrecting the run. The
// frame bytes become dead weight until compaction. A run with no entry
// is an error satisfying errors.Is(err, fs.ErrNotExist).
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
	st.version.Add(1)
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

// SnapshotStats reports what a Snapshot pass found.
type SnapshotStats struct {
	Runs      int // stored runs
	LiveBytes int64
	DeadBytes int64
}

// Snapshot brings one specification's snapshot layer up to date: it
// loads the spec and its manifest (which migrates a repository written
// in the older layout), and checkpoints the run index when the ledger
// is ahead of the checkpoint, so the next load replays nothing. On a
// current-format repository whose checkpoint is current it writes
// nothing; it is idempotent.
func (s *Store) Snapshot(specName string) (SnapshotStats, error) {
	var stats SnapshotStats
	if _, err := s.LoadSpec(specName); err != nil {
		return stats, err
	}
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.loadManifestLocked(specName, st); err != nil {
		return stats, err
	}
	if st.ledgerSeq > st.manifest.Seq {
		if err := s.saveManifestLocked(specName, st); err != nil {
			return stats, fmt.Errorf("store: spec %q: checkpoint: %w", specName, err)
		}
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
// memory. Runs deleted while it runs are skipped.
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
		c, err := s.loadRunFrame(specName, name, sp)
		if isNotExist(err) {
			stats.Runs--
			continue
		}
		if err != nil {
			return stats, err
		}
		s.cacheRun(specName, name, c)
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
