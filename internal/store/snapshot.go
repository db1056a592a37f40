package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
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
// checksummed codec frame in an append-only segment. Every commit is
// one record in the spec's Merkle ledger naming each run and frame hash
// of its batch, and every delete is one record naming the deleted run.
// The ledger is the only record of which runs are live; manifest.json
// is a cache of the run index (run name → frame) as of one ledger seq,
// which a load can rebuild. XML is what the store imports and exports,
// not what it keeps: ExportSpec renders it with wfxml.EncodeRun.
//
// Layout, per specification (backend keys):
//
//	<spec>/snapshot/manifest.json   checkpoint: run name → frame (offset, length, hash, batch) as of ledger seq
//	<spec>/snapshot/runs.seg        append-only run frames
//	<spec>/snapshot/ledger.log      Merkle ledger, one record per commit or delete
//
// A commit is exactly two synced appends, segment then ledger, and a
// delete is one synced ledger append; once its ledger record is durable
// the change is committed. Loading a spec reads the checkpoint and
// replays the ledger records after its seq (parsing the ledger from its
// end back to that seq only), finding each replayed frame in the
// segment by run name and content hash (segment records name
// themselves). A lost or unparsable checkpoint is rebuilt by replaying
// the whole ledger. The checkpoint is written only by Snapshot when the
// ledger is ahead of it, by compaction, by frame relocation, and by the
// upgrade pass that opening a repository runs over a spec an older
// release wrote (upgrade).
//
// Every stored frame equals codec.EncodeRun of the run that parsing
// the run's canonical XML produces, so export followed by re-import
// reproduces the frame byte for byte. Deleting or re-importing a run
// drops or replaces its entry; the dead bytes stay in the segment until
// the compaction threshold is crossed, as in a log-structured store.
//
// A corrupt frame, checkpoint or ledger is an error, never a silent
// miss: the segment holds the only copy of each run.

// manifestVersion guards the checkpoint JSON schema itself. Version 5
// caches a ledger that records deletes; in version 4 (which added seq,
// the last ledger batch covered) the checkpoint decided the deletes.
// Version 3 and 2 manifests were saved after every commit, so they
// cover the whole ledger; version 2 also carried XML fingerprints.
// A load reads version 5 only; versions 2 to 4 are upgraded in place
// by the upgrade pass at open. A version-1 manifest (no content
// hashes) is discarded: its repository still keeps every run as XML,
// which the upgrade re-commits.
const manifestVersion = 5

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
	// upgraded is set once the upgrade pass has migrated the spec.
	upgraded bool
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
// checkpoint, then the ledger records after it (replay). It reads the
// current format only, and refuses a spec an older release wrote as
// damage until an open upgrades it (upgrade). The ledger records
// every delete, so a missing or unparsable checkpoint is an empty
// index at seq 0, which the replay rebuilds. Caller holds st.mu.
func (s *Store) loadManifestLocked(specName string, st *snapState) error {
	if st.loaded {
		return nil
	}
	ledgerLog, last, err := s.loadLedgerLocked(specName, st)
	if err != nil {
		return err
	}
	// This release appends only current-format records.
	if last.Seq > 0 && last.Format != ledger.Format {
		return damaged(fmt.Errorf("store: spec %q: ledger ends in a format-%d record: %w", specName, last.Format, errOldFormat))
	}
	m := &snapManifest{}
	data, err := s.be.ReadFile(manifestKey(specName))
	switch {
	case isNotExist(err):
	case err != nil:
		return damaged(fmt.Errorf("store: spec %q: reading manifest: %v", specName, err))
	case json.Unmarshal(data, m) != nil:
		m = &snapManifest{}
	case m.Version < manifestVersion:
		return damaged(fmt.Errorf("store: spec %q: manifest version %d: %w", specName, m.Version, errOldFormat))
	case m.Version > manifestVersion:
		return damaged(fmt.Errorf("store: spec %q: manifest version %d, want %d", specName, m.Version, manifestVersion))
	case m.Seq < 0 || m.Seq > last.Seq:
		return damaged(fmt.Errorf("store: spec %q: manifest covers ledger batch %d, but the ledger ends at batch %d", specName, m.Seq, last.Seq))
	}
	if err := s.replay(specName, m, ledgerLog); err != nil {
		return err
	}
	st.manifest, st.loaded = m, true
	return nil
}

// errOldFormat marks a spec that only the upgrade pass reads.
var errOldFormat = errors.New("written by an older release; opening the repository with store.Open upgrades it")

// replay brings a freshly read checkpoint m up to the ledger tail: the
// records of ledgerLog after its seq. Only the last event of each run
// matters (foldLedger) — an earlier frame of the same run may already
// have been compacted away. A tombstoned run loses its entry. A run
// whose entry already carries its last attested frame's hash (the
// dedup case) keeps its entry; every other run is found by one scan of
// the segment. A frame the segment does not hold gets an entry at
// offset -1, so loading the run fails naming its batch and VerifyLedger
// reports it. Live and dead byte counts are recomputed from the
// segment's size, so the bytes of a commit whose ledger append never
// landed count as dead. Every error it returns is ErrDamaged.
func (s *Store) replay(specName string, m *snapManifest, ledgerLog []byte) error {
	recs, _, err := ledgerTail(ledgerLog, m.Seq)
	if err != nil {
		return damaged(fmt.Errorf("store: spec %q: %w", specName, err))
	}
	if m.Runs == nil {
		m.Runs = map[string]snapEntry{}
	}
	var found map[string]map[string]segLoc
	for name, a := range foldLedger(recs) {
		if a.Hash == "" {
			delete(m.Runs, name)
			continue
		}
		e, ok := m.Runs[name]
		if !ok || e.Hash != a.Hash {
			if found == nil {
				seg, err := s.be.ReadFile(segmentKey(specName))
				if err != nil && !isNotExist(err) {
					return damaged(fmt.Errorf("store: spec %q: replaying ledger: %w", specName, err))
				}
				found = scanSegment(seg)
			}
			e = snapEntry{Offset: -1, Codec: codec.Version, Hash: a.Hash}
			if loc, ok := found[name][a.Hash]; ok {
				e.Offset, e.Length = loc.Offset, loc.Length
			}
		}
		e.Batch = a.Batch
		m.Runs[name] = e
	}
	var size int64
	if fi, err := s.be.Stat(segmentKey(specName)); err == nil {
		size = fi.Size
	} else if !isNotExist(err) {
		return damaged(fmt.Errorf("store: spec %q: %w", specName, err))
	}
	m.Live = 0
	for _, e := range m.Runs {
		m.Live += e.Length
	}
	m.Dead = max(0, size-m.Live)
	return nil
}

// upgrade brings a spec an older release wrote to the current format:
// the format history lives here, and a spec load reads only the
// current format (loadManifestLocked). Open and OpenRepository run it
// over every spec before they return; OpenBackend does not. The spec
// is loaded as any read would load it, and stays loaded. Only a spec
// that load refuses as an older format (errOldFormat), or whose
// <spec>/runs still holds run documents, is migrated; a spec whose
// load fails otherwise is left to report its damage on every read.
func (s *Store) upgrade(specName string) error {
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	legacy, undecided := false, false
	if err := s.loadManifestLocked(specName, st); errors.Is(err, errOldFormat) {
		ledgerLog, last, err := s.loadLedgerLocked(specName, st)
		if err != nil {
			return err
		}
		undecided = last.Seq > 0 && last.Format != ledger.Format
		if st.manifest, legacy, err = s.readManifest(specName, last.Seq); err != nil {
			return damaged(err)
		}
		if err := s.replay(specName, st.manifest, ledgerLog); err != nil {
			return err
		}
	} else if err != nil {
		return nil
	}
	if err := s.migrateLegacyLocked(specName, st, legacy, undecided); err != nil {
		st.manifest, st.loaded = nil, false
		return err
	}
	st.loaded = true
	return nil
}

// readManifest parses the checkpoint of a spec the strict load refused,
// against last, the seq of its ledger's last record. Over an older
// ledger the checkpoint decided the deletes: a missing one is an empty
// index while the ledger holds at most one batch (a crashed first
// commit), and damage otherwise. Version 3 and 2 manifests cover the
// whole ledger. legacy reports a manifest whose run list was the XML
// listing rather than its own entries (version 1 or 2, or a lost one
// of such a repository).
func (s *Store) readManifest(specName string, last int64) (m *snapManifest, legacy bool, err error) {
	m = &snapManifest{Seq: last}
	data, err := s.be.ReadFile(manifestKey(specName))
	if isNotExist(err) {
		if last <= 1 {
			return m, false, nil
		}
		// An older release wrote the checkpoint at a spec's first
		// commit, so a ledger past its first batch proves one was lost;
		// only a legacy repository's run documents can rebuild it.
		docs, err := s.be.List(legacyRunsDir(specName))
		if err != nil {
			return nil, false, fmt.Errorf("store: spec %q: %w", specName, err)
		}
		if len(docs) == 0 {
			return nil, false, fmt.Errorf("store: spec %q: manifest missing although the ledger attests %d batches", specName, last)
		}
		return m, true, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: spec %q: reading manifest: %v", specName, err)
	}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, false, fmt.Errorf("store: spec %q: corrupt manifest: %v", specName, err)
	}
	switch m.Version {
	case 1: // no content hashes: the documents are the runs
		return &snapManifest{Seq: last}, true, nil
	case 2, 3:
		legacy, m.Seq = m.Version == 2, last
	case 4, manifestVersion:
		if m.Seq < 0 || m.Seq > last {
			return nil, false, fmt.Errorf("store: spec %q: manifest covers ledger batch %d, but the ledger ends at batch %d", specName, m.Seq, last)
		}
	default:
		return nil, false, fmt.Errorf("store: spec %q: manifest version %d, want %d", specName, m.Version, manifestVersion)
	}
	return m, legacy, nil
}

// legacyRunsDir is where repositories written before frames became
// the only copy kept one XML document per run.
func legacyRunsDir(specName string) string { return specName + "/runs" }

func legacyRunKey(specName, runName string) string {
	return legacyRunsDir(specName) + "/" + runName + ".xml"
}

// migrateLegacyLocked brings a loaded spec to the current format: one
// ledger record, then a current checkpoint. The record attests every
// leftover run document of the layout that kept each run twice
// (<spec>/runs/<run>.xml; an identical live frame is deduped), which
// then goes. It tombstones every run the ledger attests that the index
// lacks, since format-0 records never recorded a delete and the old
// checkpoint did; under a legacy manifest the documents were the run
// list, so it also tombstones every indexed run without one (every
// such entry is attested: version-2 manifests were written alongside
// the ledger). Over an undecided ledger (one ending in a format-0
// record) the record is appended even when empty: holding a
// current-format record is what makes the ledger decide the run set.
// A spec the strict load read (st.loaded) is left alone unless
// documents are left. Interrupted migrations resume at the next open:
// commits are idempotent and the documents go only after the
// checkpoint. A spec it changes is marked upgraded. Caller holds st.mu.
func (s *Store) migrateLegacyLocked(specName string, st *snapState, legacy, undecided bool) error {
	entries, err := s.be.List(legacyRunsDir(specName))
	if err != nil {
		return fmt.Errorf("store: spec %q: %w", specName, err)
	}
	docs := map[string]bool{}
	var names []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name, ".xml"); ok && !e.Dir {
			names = append(names, name)
			docs[name] = true
		}
	}
	if len(names) == 0 && st.loaded {
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
	var gone []string
	if legacy || undecided {
		recs, err := s.readLedger(specName)
		if err != nil {
			return damaged(fmt.Errorf("store: spec %q: %w", specName, err))
		}
		for name, a := range foldLedger(recs) {
			if _, ok := st.manifest.Runs[name]; (legacy && ok || !ok && a.Hash != "") && !docs[name] {
				gone = append(gone, name)
			}
		}
		slices.Sort(gone)
	}
	if len(items) > 0 || len(gone) > 0 || undecided {
		if _, err := s.commitLocked(specName, st, items, gone...); err != nil {
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
	st.upgraded = true
	return nil
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

// loadEntry decodes a stored run from the segment frame of its
// manifest entry, reading the frame into *buf. A frame that is not
// where the entry says is looked for again (relocatedEntry): a
// compaction may have moved it since the manifest lookup, or crashed
// after rewriting the segment but before writing the checkpoint that
// records the new offsets. Any other failure (a checksum mismatch, a
// frame from another codec version, a frame the segment does not hold)
// is an error naming the run and the batch that committed it.
func (s *Store) loadEntry(specName, runName string, e snapEntry, sp *spec.Spec, buf *[]byte) (cachedRun, error) {
	r, ferr := s.decodeFrame(specName, runName, e, sp, buf)
	if ferr == nil {
		return cachedRun{r, e.Hash}, nil
	}
	again, err := s.relocatedEntry(specName, runName)
	if err != nil {
		return cachedRun{}, err
	}
	if again != e {
		if r, ferr = s.decodeFrame(specName, runName, again, sp, buf); ferr == nil {
			return cachedRun{r, again.Hash}, nil
		}
	}
	return cachedRun{}, damaged(fmt.Errorf("store: run %q of %q (batch %d): %v", runName, specName, e.Batch, ferr))
}

// decodeFrame reads a manifest entry's segment record into *buf, grown
// to fit, and decodes its frame, checking that the record names this
// very run: a reader racing a compaction may land its stale offset on
// a different, equal-length record whose checksum verifies, and only
// the embedded name catches that. An entry at offset -1 fails without
// a read.
func (s *Store) decodeFrame(specName, runName string, e snapEntry, sp *spec.Spec, buf *[]byte) (*wfrun.Run, error) {
	if e.Offset < 0 {
		return nil, errors.New("frame not found in the segment")
	}
	if int64(cap(*buf)) < e.Length {
		*buf = make([]byte, e.Length)
	}
	rec := (*buf)[:e.Length]
	if err := s.be.ReadAt(segmentKey(specName), rec, e.Offset); err != nil {
		// Not wrapped: a listed run whose frame is unreadable is damage,
		// not a missing run.
		return nil, fmt.Errorf("reading segment: %v", err)
	}
	name, frame, err := parseSegmentRecord(rec)
	if err != nil {
		return nil, err
	}
	if name != runName {
		return nil, fmt.Errorf("segment record at offset %d holds run %q", e.Offset, name)
	}
	return codec.DecodeRun(frame, sp)
}

// relocatedEntry returns a run's current manifest entry. When that
// entry's frame is not intact where it points, the index is rebuilt by
// replaying the whole ledger over an empty one, which finds every frame
// by run name and content hash — the recovery from a compaction that
// crashed between its segment rewrite and its checkpoint. The rebuilt
// index is installed and checkpointed only if it finds this very frame
// (the entry's content hash) in the segment: otherwise the frame is
// damaged, not moved, and the index stays as it was. An entry at
// offset -1 is returned as it is: the replay that built it found no
// frame either.
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
	if e.Offset < 0 || s.segmentFrameIntact(specName, runName, e) {
		return e, nil
	}
	ledgerLog, _, err := s.loadLedgerLocked(specName, st)
	m := &snapManifest{}
	if err != nil || s.replay(specName, m, ledgerLog) != nil {
		return e, nil // the caller reports the original failure
	}
	again, ok := m.Runs[runName]
	if !ok || again.Hash != e.Hash || again.Offset < 0 {
		return e, nil
	}
	m.Version, m.Seq = st.manifest.Version, st.manifest.Seq
	st.manifest = m
	_ = s.saveManifestLocked(specName, st) // the next load repeats the rebuild if this fails
	return again, nil
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
// cursor already loaded, whose one ledger record also tombstones the
// deleted runs; a delete is a commit of no items. Caller holds st.mu.
func (s *Store) commitLocked(specName string, st *snapState, items []snapBatchItem, deleted ...string) ([]string, error) {
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
	fi, err := s.be.Stat(segmentKey(specName))
	if err != nil && !isNotExist(err) {
		return nil, err
	}
	off := fi.Size
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
	rec, err := ledger.NewRecord(st.ledgerSeq+1, st.ledgerHead, leafs, deleted...)
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
		for _, l := range leafs {
			delete(s.runs, runKey(specName, l.Run))
		}
		for _, name := range deleted {
			delete(s.runs, runKey(specName, name))
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
	s.mu.Lock()
	for _, name := range deleted {
		e := m.Runs[name]
		delete(m.Runs, name)
		delete(s.runs, runKey(specName, name))
		m.Dead += e.Length
		m.Live -= e.Length
	}
	s.mu.Unlock()
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
	if e.Offset < 0 {
		return false
	}
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
// cursor at its last record and returns the log and that record — and
// repairs a torn tail first (truncateTornTail). A crash mid-append leaves a partial
// final line; readers tolerate it, but welded onto by the next append
// it would become a malformed middle line that VerifyLedger can no
// longer tell from tampering. A log that cannot be read or repaired, or
// whose last record cannot be parsed, is an error naming the spec, and
// the cursor stays unloaded: appending after it would fork the chain.
// Caller holds st.mu.
func (s *Store) loadLedgerLocked(specName string, st *snapState) ([]byte, ledger.Record, error) {
	data, err := s.be.ReadFile(ledgerKey(specName))
	if err != nil && !isNotExist(err) {
		return nil, ledger.Record{}, damaged(fmt.Errorf("store: spec %q: reading ledger: %w", specName, err))
	}
	if data, err = truncateTornTail(s.be, ledgerKey(specName), data); err != nil {
		return nil, ledger.Record{}, fmt.Errorf("store: spec %q: truncating torn ledger tail: %w", specName, err)
	}
	_, last, err := ledgerTail(data, math.MaxInt64)
	if err != nil {
		return nil, last, damaged(fmt.Errorf("store: spec %q: %w", specName, err))
	}
	st.ledgerSeq, st.ledgerHead = last.Seq, ledger.Zero
	if last.Seq > 0 {
		st.ledgerHead, _ = ledger.Parse(last.Head)
	}
	st.ledgerLoaded = true
	return data, last, nil
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

// DeleteRun removes a stored run with one synced ledger record that
// tombstones it, so a restart or a rebuilt checkpoint can never
// resurrect it, and drops its index entry and cached decode. Its frame
// bytes become dead weight until compaction. A run with no entry is an
// error satisfying errors.Is(err, fs.ErrNotExist).
func (s *Store) DeleteRun(specName, runName string) error {
	if err := validateNames(specName, runName); err != nil {
		return err
	}
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.loadManifestLocked(specName, st); err != nil {
		return err
	}
	if _, ok := st.manifest.Runs[runName]; !ok {
		return fmt.Errorf("store: unknown run %q of %q: %w", runName, specName, notExist("remove", runName))
	}
	if _, err := s.commitLocked(specName, st, nil, runName); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	st.version.Add(1)
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
// updated entry (loadEntry); compaction needs no reader
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
		// An entry at offset -1 has no frame to move: it is carried
		// through as it is, and its run keeps failing as damaged.
		if e.Offset >= 0 {
			if e.Offset+e.Length > int64(len(old)) {
				return fmt.Errorf("store: segment entry %q out of bounds", name)
			}
			rec := old[e.Offset : e.Offset+e.Length]
			e.Offset = int64(out.Len())
			out.Write(rec)
		}
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
// loads the spec and its run index, and checkpoints the index when the
// ledger is ahead of the checkpoint, so the next load replays nothing.
// On a spec whose checkpoint is current it writes nothing; it is
// idempotent. It
// does not upgrade a spec an older release wrote: opening the
// repository does (upgrade).
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
	// Upgraded reports that opening the repository upgraded the spec
	// from an older release's format.
	Upgraded bool
}

// Preload warms the in-memory caches of one specification: the spec
// itself plus every stored run, decoded from its frame. After Preload
// returns, LoadRun and the cohort paths serve existing runs from
// memory. Runs deleted while it runs are skipped and not counted.
//
// The runs not yet cached are decoded by up to GOMAXPROCS workers, each
// reading frames into one reused buffer. A failure is reported for the
// first failing run in name order; once one run fails no worker starts
// another, but runs already started still finish and may be cached.
func (s *Store) Preload(specName string) (PreloadStats, error) {
	stats := PreloadStats{Spec: specName}
	sp, err := s.LoadSpec(specName)
	if err != nil {
		return stats, err
	}
	todo, err := s.uncachedEntries(&stats)
	if err != nil {
		return stats, err
	}
	// Each outcome is written by the one worker that took its run and
	// read after Wait.
	type outcome struct {
		gone bool
		err  error
	}
	outcomes := make([]outcome, len(todo))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(todo)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				name := todo[i].name
				c, err := s.loadEntry(specName, name, todo[i].entry, sp, &buf)
				switch {
				case isNotExist(err):
					outcomes[i].gone = true
				case err != nil:
					outcomes[i].err = err
					failed.Store(true)
				default:
					_, listed := s.cacheRun(specName, name, c)
					outcomes[i].gone = !listed
				}
			}
		}()
	}
	wg.Wait()
	for _, o := range outcomes {
		if o.err != nil {
			return stats, o.err
		}
		if o.gone {
			stats.Runs--
		}
	}
	return stats, nil
}

// namedEntry is a run's manifest entry under its name.
type namedEntry struct {
	name  string
	entry snapEntry
}

// uncachedEntries counts the runs a spec's manifest lists into stats,
// notes whether the spec was upgraded, and returns, in name order, the
// entries of the runs with no decoded copy cached.
func (s *Store) uncachedEntries(stats *PreloadStats) ([]namedEntry, error) {
	specName := stats.Spec
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.loadManifestLocked(specName, st); err != nil {
		return nil, err
	}
	stats.Runs, stats.Upgraded = len(st.manifest.Runs), st.upgraded
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []namedEntry
	for name, e := range st.manifest.Runs {
		if _, ok := s.runs[runKey(specName, name)]; !ok {
			out = append(out, namedEntry{name, e})
		}
	}
	slices.SortFunc(out, func(a, b namedEntry) int { return strings.Compare(a.name, b.name) })
	return out, nil
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
