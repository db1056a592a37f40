package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/ledger"
	"repro/internal/sptree"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// seedDir fills a fresh repository with the PA workflow under "pa"
// and n generated runs r0..r{n-1}, returning its directory.
func seedDir(t testing.TB, n int) string {
	t.Helper()
	dir := t.TempDir()
	s := openTestStore(t, dir)
	pa, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSpec("pa", pa); err != nil {
		t.Fatal(err)
	}
	sp, err := s.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SaveRun("pa", fmt.Sprintf("r%d", i), r); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func reopen(t testing.TB, dir string) *Store {
	t.Helper()
	return openTestStore(t, dir)
}

// exportedXML renders the named runs of spec "pa" through ExportSpec
// and returns each run's document.
func exportedXML(t testing.TB, s *Store, names ...string) map[string][]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.ExportSpec("pa", names, &buf); err != nil {
		t.Fatal(err)
	}
	runs, err := ReadRunTar(&buf, 1<<24, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(runs))
	for _, rd := range runs {
		out[rd.Name] = rd.XML
	}
	return out
}

// TestSnapshotRoundTrip is the codec property test through the full
// store: a run a cold store decodes from its frame is
// indistinguishable from a parse of the XML the store exports for it.
func TestSnapshotRoundTrip(t *testing.T) {
	const n = 6
	dir := seedDir(t, n)
	if _, err := reopen(t, dir).Snapshot("pa"); err != nil {
		t.Fatal(err)
	}
	cold := reopen(t, dir)
	sp, err := cold.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	docs := exportedXML(t, cold)
	if len(docs) != n {
		t.Fatalf("exported %d runs, want %d", len(docs), n)
	}
	eng := core.NewEngine(cost.Unit{})
	for name, doc := range docs {
		assertInManifest(t, cold, name)
		viaFrame, err := cold.LoadRun("pa", name)
		if err != nil {
			t.Fatal(err)
		}
		viaXML, err := wfxml.DecodeRun(bytes.NewReader(doc), sp)
		if err != nil {
			t.Fatal(err)
		}
		if viaXML.Tree.String() != viaFrame.Tree.String() {
			t.Errorf("%s: frame tree differs from XML tree:\n%s\nvs\n%s", name, viaFrame.Tree, viaXML.Tree)
		}
		if !sptree.Equivalent(viaXML.Tree, viaFrame.Tree) {
			t.Errorf("%s: frame tree not equivalent to XML tree", name)
		}
		if viaXML.Graph.String() != viaFrame.Graph.String() {
			t.Errorf("%s: frame graph differs from XML graph", name)
		}
		if d, err := eng.Distance(viaFrame, viaXML); err != nil || d != 0 {
			t.Errorf("%s: distance frame-vs-xml = %v, %v; want 0, nil", name, d, err)
		}
	}
}

// assertInManifest fails unless the run is stored.
func assertInManifest(t *testing.T, s *Store, runName string) {
	t.Helper()
	if !s.hasRun("pa", runName) {
		t.Fatalf("run %q has no manifest entry", runName)
	}
}

// corruptFrame flips one byte in the middle of a run's segment frame.
func corruptFrame(t *testing.T, dir, runName string) snapEntry {
	t.Helper()
	e, err := reopen(t, dir).manifestEntry("pa", runName)
	if err != nil {
		t.Fatal(err)
	}
	be := openTestBackend(t, dir)
	data, err := be.ReadFile(segmentKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	data[e.Offset+e.Length/2] ^= 0xff
	if err := be.WriteFile(segmentKey("pa"), data); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCorruptFrameFailsLoadAndVerify: the segment holds the only copy
// of a run, so a damaged frame is an error — LoadRun and Preload name
// the run and its batch, VerifyLedger names the batch — while every
// other run still loads.
func TestCorruptFrameFailsLoadAndVerify(t *testing.T) {
	dir := seedDir(t, 4)
	e := corruptFrame(t, dir, "r2")
	cold := reopen(t, dir)
	_, err := cold.LoadRun("pa", "r2")
	if err == nil {
		t.Fatal("LoadRun served a corrupt frame")
	}
	if errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("corrupt frame reported as a missing run: %v", err)
	}
	want := fmt.Sprintf("batch %d", e.Batch)
	if !strings.Contains(err.Error(), `"r2"`) || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadRun error %q does not name the run and %s", err, want)
	}
	for _, name := range []string{"r0", "r1", "r3"} {
		if _, err := cold.LoadRun("pa", name); err != nil {
			t.Fatalf("intact run %s: %v", name, err)
		}
	}
	if _, err := reopen(t, dir).Preload("pa"); err == nil {
		t.Fatal("Preload succeeded over a corrupt frame")
	}
	report, err := cold.VerifyLedger("pa")
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() || report.Issues[0].Batch != e.Batch || report.Issues[0].Run != "r2" {
		t.Fatalf("VerifyLedger = %+v, want the first issue at batch %d run r2", report.Issues, e.Batch)
	}
}

// TestDeleteRunDropsSnapshot is the regression test for the delete
// path: a deleted run must disappear from the manifest and stay gone
// after a restart, and advance the run-set version exactly one step.
func TestDeleteRunDropsSnapshot(t *testing.T) {
	dir := seedDir(t, 3)
	s := reopen(t, dir)
	if _, err := s.Snapshot("pa"); err != nil {
		t.Fatal(err)
	}
	v0 := s.RunsVersion("pa")
	if err := s.DeleteRun("pa", "r1"); err != nil {
		t.Fatal(err)
	}
	if v := s.RunsVersion("pa"); v != v0+1 {
		t.Fatalf("delete moved the run-set version %d → %d, want one step", v0, v)
	}
	if s.hasRun("pa", "r1") {
		t.Fatal("deleted run still in the manifest")
	}
	// Restart: the run must not resurrect from the snapshot layer.
	restarted := reopen(t, dir)
	if _, err := restarted.LoadRun("pa", "r1"); err == nil {
		t.Fatal("deleted run loadable after restart")
	}
	runs, err := restarted.ListRuns("pa")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("ListRuns after delete+restart = %v", runs)
	}
	pre, err := restarted.Preload("pa")
	if err != nil {
		t.Fatal(err)
	}
	if pre.Runs != 2 {
		t.Fatalf("Preload after delete+restart = %+v, want 2 runs", pre)
	}
	if err := restarted.DeleteRun("pa", "r1"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("second delete = %v, want a not-exist error", err)
	}
}

// TestSaveRunInvalidatesSnapshot: re-importing a run must demote its
// old snapshot frame — a restarted store serves the new content.
func TestSaveRunInvalidatesSnapshot(t *testing.T) {
	dir := seedDir(t, 2)
	s := reopen(t, dir)
	if _, err := s.Snapshot("pa"); err != nil {
		t.Fatal(err)
	}
	sp, err := s.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	fresh, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveRun("pa", "r0", fresh); err != nil {
		t.Fatal(err)
	}
	// What a fresh parse of the new XML yields:
	var buf bytes.Buffer
	if err := wfxml.EncodeRun(&buf, fresh, "r0"); err != nil {
		t.Fatal(err)
	}
	want, err := wfxml.DecodeRun(bytes.NewReader(buf.Bytes()), sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopen(t, dir).LoadRun("pa", "r0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Tree.LabelSignature() != want.Tree.LabelSignature() {
		t.Fatal("restarted store served the pre-overwrite run")
	}
}

func TestPreloadWarmsEverything(t *testing.T) {
	dir := seedDir(t, 5)
	if _, err := reopen(t, dir).Snapshot("pa"); err != nil {
		t.Fatal(err)
	}
	s := reopen(t, dir)
	all, err := s.PreloadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].Runs != 5 {
		t.Fatalf("PreloadAll = %+v", all)
	}
	// Everything must now come from memory: repeated loads share the
	// cached object.
	a, err := s.LoadRun("pa", "r0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.LoadRun("pa", "r0")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("post-Preload loads did not share the cached run")
	}
}

// TestSnapshotZeroRuns: snapshotting (and preloading) a spec with no
// runs must be a no-op, not a crash — provserved warm-starts every
// spec, including ones where import-spec just ran.
func TestSnapshotZeroRuns(t *testing.T) {
	dir := seedDir(t, 0)
	s := reopen(t, dir)
	stats, err := s.Snapshot("pa")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 0 || stats.LiveBytes != 0 {
		t.Fatalf("zero-run Snapshot = %+v", stats)
	}
	pre, err := s.Preload("pa")
	if err != nil {
		t.Fatal(err)
	}
	if pre.Runs != 0 {
		t.Fatalf("zero-run Preload = %+v", pre)
	}
	// A spec with no runs has no ledger file: it verifies as empty.
	report, err := s.VerifyLedger("pa")
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() || report.Specs != 1 || report.Batches != 0 || report.Runs != 0 {
		t.Fatalf("zero-run VerifyLedger = %+v", report)
	}
}

// TestSnapshotRejectsWrongRunRecord: a manifest entry pointing at a
// record that names a different run (the compaction-race shape: a
// stale offset landing on another run's equal-length, checksum-valid
// record) must fail the load, never serve the wrong run.
func TestSnapshotRejectsWrongRunRecord(t *testing.T) {
	dir := seedDir(t, 2)
	s := reopen(t, dir)
	st := s.snap("pa")
	st.mu.Lock()
	if err := s.loadManifestLocked("pa", st); err != nil {
		t.Fatal(err)
	}
	r1 := st.manifest.Runs["r1"]
	st.manifest.Runs["r0"] = r1 // r0's entry now points at r1's record
	st.mu.Unlock()
	if _, err := s.LoadRun("pa", "r0"); err == nil || !strings.Contains(err.Error(), `holds run "r1"`) {
		t.Fatalf("LoadRun through a foreign record = %v, want a wrong-record error", err)
	}
	if _, err := s.LoadRun("pa", "r1"); err != nil {
		t.Fatal(err)
	}
}

// runAnswers renders what a store serves about spec "pa": each listed
// run with its content hash (LoadRunHash) and inclusion proof.
func runAnswers(t *testing.T, s *Store) string {
	t.Helper()
	names, err := s.ListRuns("pa")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, name := range names {
		_, hash, err := s.LoadRunHash("pa", name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %s %s\n", name, hash, proofJSON(t, s, name))
	}
	return out.String()
}

// downgradeLedger rewrites spec "pa" as an older release left it: a
// ledger of format-0 records, whose leaves bind only content hashes
// and which never delete a run, and a version-4 checkpoint.
func downgradeLedger(t *testing.T, be Backend) {
	t.Helper()
	raw, err := be.ReadFile(ledgerKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.ParseLog(raw)
	if err != nil {
		t.Fatal(err)
	}
	var log []byte
	prev := ledger.Zero
	for _, rec := range recs {
		if len(rec.Deleted) > 0 {
			t.Fatalf("batch %d deletes runs, which format 0 cannot", rec.Seq)
		}
		leaves := make([]ledger.Hash, len(rec.Runs))
		for i, l := range rec.Runs {
			content, err := ledger.Parse(l.Hash)
			if err != nil {
				t.Fatal(err)
			}
			leaves[i] = ledger.Leaf(content)
		}
		root := ledger.Root(leaves)
		rec.Format, rec.Prev, rec.Root = 0, prev.Hex(), root.Hex()
		prev = ledger.Extend(prev, root)
		rec.Head = prev.Hex()
		line, err := ledger.MarshalRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, line...)
	}
	if err := be.WriteFile(ledgerKey("pa"), log); err != nil {
		t.Fatal(err)
	}
	raw, err = be.ReadFile(manifestKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	var m snapManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m.Version = 4
	if raw, err = json.Marshal(&m); err != nil {
		t.Fatal(err)
	}
	if err := be.WriteFile(manifestKey("pa"), raw); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptManifestRefuses: over a ledger that records deletes, a
// checkpoint that cannot be parsed, or is missing, is only a lost
// cache. After commits, a delete and a compaction, the reopened store
// rebuilds the index from the ledger and serves exactly what it served
// before, with a green ledger. Over an older ledger (format-0 records,
// which never recorded a delete) the checkpoint decided which runs
// were deleted, so the same damage must fail every read of its spec
// with an error naming the spec — never read as an empty run list,
// since the segment holds the only copy of each run — and VerifyLedger
// must report it, and the upgrade pass at open must fail. There a
// manifest missing after a single batch is a crashed first commit,
// which the upgrade reads as an empty spec whose segment bytes are
// dead.
func TestCorruptManifestRefuses(t *testing.T) {
	damages := []func(be Backend) error{
		func(be Backend) error { return be.WriteFile(manifestKey("pa"), []byte("{corrupt")) },
		func(be Backend) error { return be.Remove(manifestKey("pa")) },
	}
	for _, damage := range damages {
		dir := seedDir(t, 3)
		s := reopen(t, dir)
		if _, err := s.ImportRuns("pa", genRunXML(t, s, 3, 5, "x"), 2); err != nil {
			t.Fatal(err)
		}
		for _, step := range []func() error{
			func() error { return s.DeleteRun("pa", "r1") },
			func() error { return s.Compact("pa") },
			func() error { return s.DeleteRun("pa", "x0") },
			func() error { _, err := s.ImportRuns("pa", genRunXML(t, s, 1, 6, "r"), 1); return err },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		want := runAnswers(t, reopen(t, dir))
		if err := damage(openTestBackend(t, dir)); err != nil {
			t.Fatal(err)
		}
		rebuilt := reopen(t, dir)
		if got := runAnswers(t, rebuilt); got != want {
			t.Fatalf("rebuilt store serves\n%s\nwant\n%s", got, want)
		}
		requireVerifyOK(t, rebuilt)
	}

	dir := seedDir(t, 3)
	be := openTestBackend(t, dir)
	if _, err := reopen(t, dir).Snapshot("pa"); err != nil {
		t.Fatal(err)
	}
	downgradeLedger(t, be)
	for _, damage := range damages {
		if err := damage(be); err != nil {
			t.Fatal(err)
		}
		s := reopen(t, dir)
		if names, err := s.ListRuns("pa"); err == nil || !strings.Contains(err.Error(), `"pa"`) || !errors.Is(err, ErrDamaged) {
			t.Fatalf("ListRuns over a damaged manifest = %v, %v; want an ErrDamaged error naming the spec", names, err)
		}
		if _, err := s.LoadRun("pa", "r0"); err == nil || !errors.Is(err, ErrDamaged) {
			t.Fatalf("LoadRun over a damaged manifest = %v, want ErrDamaged", err)
		}
		if _, err := s.Preload("pa"); err == nil {
			t.Fatal("Preload succeeded over a damaged manifest")
		}
		if _, err := s.ImportRuns("pa", genRunXML(t, s, 1, 5, "x"), 1); err == nil {
			t.Fatal("import succeeded over a damaged manifest")
		}
		report, err := s.VerifyLedger("pa")
		if err != nil {
			t.Fatal(err)
		}
		if report.OK() {
			t.Fatal("VerifyLedger is green over a damaged manifest")
		}
		if err := upgradeAll(reopen(t, dir)); err == nil || !errors.Is(err, ErrDamaged) {
			t.Fatalf("upgrade over a damaged manifest = %v, want ErrDamaged", err)
		}
	}

	first := seedDir(t, 1)
	be = openTestBackend(t, first)
	if _, err := reopen(t, first).Snapshot("pa"); err != nil {
		t.Fatal(err)
	}
	downgradeLedger(t, be)
	if err := be.Remove(manifestKey("pa")); err != nil {
		t.Fatal(err)
	}
	s := reopenUpgraded(t, first)
	if names, err := s.ListRuns("pa"); err != nil || len(names) != 0 {
		t.Fatalf("ListRuns after a crashed first commit = %v, %v; want empty", names, err)
	}
	st := s.snap("pa")
	st.mu.Lock()
	dead := st.manifest.Dead
	st.mu.Unlock()
	if dead == 0 {
		t.Fatal("segment bytes of a crashed first commit not counted as dead")
	}
	requireVerifyOK(t, s)
}

// TestSnapshotIdempotent: on a current-format repository Snapshot
// writes no run frames and no ledger records, however often it runs.
func TestSnapshotIdempotent(t *testing.T) {
	dir := seedDir(t, 3)
	s := reopen(t, dir)
	segBefore, err := s.Backend().Stat(segmentKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		stats, err := s.Snapshot("pa")
		if err != nil {
			t.Fatal(err)
		}
		if stats.Runs != 3 || stats.LiveBytes != segBefore.Size {
			t.Fatalf("Snapshot #%d = %+v, want 3 runs over %d live bytes", i+1, stats, segBefore.Size)
		}
	}
	segAfter, err := s.Backend().Stat(segmentKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	heads, _, err := s.LedgerHeads()
	if err != nil {
		t.Fatal(err)
	}
	if segAfter.Size != segBefore.Size || heads["pa"].Batches != 3 {
		t.Fatalf("Snapshot grew the segment %d→%d or the ledger to %d batches", segBefore.Size, segAfter.Size, heads["pa"].Batches)
	}
}

// TestSnapshotCompaction: repeatedly re-importing runs accrues dead
// segment bytes; once past the threshold the segment is rewritten and
// every surviving run still loads from it.
func TestSnapshotCompaction(t *testing.T) {
	dir := seedDir(t, 2)
	s := reopen(t, dir)
	sp, err := s.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	// Churn: overwrite r0 many times. Dead bytes grow with every
	// overwrite.
	for i := 0; i < 30; i++ {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SaveRun("pa", "r0", r); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LoadRun("pa", "r0"); err != nil {
			t.Fatal(err)
		}
	}
	// Force a compaction deterministically through the internal hook
	// to prove the rewrite preserves every live run. (Real compactions
	// trigger on the dead-byte thresholds, which are sized for
	// production churn.)
	st := s.snap("pa")
	st.mu.Lock()
	st.manifest.Dead = compactMinDeadBytes + 1
	err = s.maybeCompactLocked("pa", st)
	live := st.manifest.Live
	st.mu.Unlock()
	if err != nil {
		t.Fatalf("compaction: %v", err)
	}
	fi, err := s.Backend().Stat(segmentKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != live {
		t.Fatalf("segment is %d bytes after compaction, manifest says %d live", fi.Size, live)
	}
	pre, err := reopen(t, dir).Preload("pa")
	if err != nil {
		t.Fatal(err)
	}
	if pre.Runs != 2 {
		t.Fatalf("post-compaction Preload = %+v, want 2 runs", pre)
	}
}

// BenchmarkColdPreloadSnapshot measures a cold store decoding a
// 32-run cohort from its frames.
func BenchmarkColdPreloadSnapshot(b *testing.B) {
	dir := seedDir(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pre, err := reopen(b, dir).Preload("pa")
		if err != nil {
			b.Fatal(err)
		}
		if pre.Runs != 32 {
			b.Fatalf("preloaded %d runs, want 32", pre.Runs)
		}
	}
}

// countingBackend records every key a store reads.
type countingBackend struct {
	Backend
	mu    sync.Mutex
	reads map[string]int64 // key → bytes read
}

func (b *countingBackend) count(key string, n int) {
	b.mu.Lock()
	b.reads[key] += int64(n)
	b.mu.Unlock()
}

func (b *countingBackend) ReadFile(key string) ([]byte, error) {
	data, err := b.Backend.ReadFile(key)
	b.count(key, len(data))
	return data, err
}

func (b *countingBackend) ReadAt(key string, p []byte, off int64) error {
	b.count(key, len(p))
	return b.Backend.ReadAt(key, p, off)
}

// parkedReadBackend parks the first segment read made after arm until
// release closes, closing entered when it parks.
type parkedReadBackend struct {
	Backend
	armed   atomic.Bool
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newParkedReadBackend(be Backend) *parkedReadBackend {
	return &parkedReadBackend{Backend: be, entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *parkedReadBackend) ReadAt(key string, p []byte, off int64) error {
	if b.armed.Load() && key == segmentKey("pa") {
		b.once.Do(func() {
			close(b.entered)
			<-b.release
		})
	}
	return b.Backend.ReadAt(key, p, off)
}

// TestLoadRunRacesDelete: a load whose frame read straddles a delete
// of the same run may answer with the run (the two were concurrent),
// but must not cache it — once both return, the run is gone.
func TestLoadRunRacesDelete(t *testing.T) {
	be := newParkedReadBackend(openTestBackend(t, seedDir(t, 3)))
	s := OpenBackend(be)
	if _, err := s.ListRuns("pa"); err != nil {
		t.Fatal(err)
	}
	be.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := s.LoadRun("pa", "r1")
		done <- err
	}()
	<-be.entered
	if err := s.DeleteRun("pa", "r1"); err != nil {
		t.Fatal(err)
	}
	close(be.release)
	<-done
	if names, err := s.ListRuns("pa"); err != nil || strings.Join(names, " ") != "r0 r2" {
		t.Fatalf("ListRuns = %v, %v; want [r0 r2]", names, err)
	}
	if _, err := s.LoadRun("pa", "r1"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("LoadRun of the deleted run = %v, want not-exist", err)
	}
}

// TestPreloadRacesDelete: a run deleted while Preload is loading the
// spec is skipped, not an error, and stays deleted.
func TestPreloadRacesDelete(t *testing.T) {
	be := newParkedReadBackend(openTestBackend(t, seedDir(t, 3)))
	s := OpenBackend(be)
	be.armed.Store(true)
	done := make(chan error, 1)
	var pre PreloadStats
	go func() {
		var err error
		pre, err = s.Preload("pa")
		done <- err
	}()
	<-be.entered // parked on r0's frame, r2 not yet looked up
	if err := s.DeleteRun("pa", "r2"); err != nil {
		t.Fatal(err)
	}
	close(be.release)
	if err := <-done; err != nil {
		t.Fatalf("Preload racing a delete: %v", err)
	}
	if pre.Runs != 2 {
		t.Fatalf("Preload loaded %d runs, want 2", pre.Runs)
	}
	if _, err := s.LoadRun("pa", "r2"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("LoadRun of the deleted run = %v, want not-exist", err)
	}
}

// TestPreloadReportsFirstDamagedRun: with two damaged frames among 64
// runs, Preload fails naming the one first in name order, with the
// error LoadRun gives for it, and counts every listed run.
func TestPreloadReportsFirstDamagedRun(t *testing.T) {
	dir := seedDir(t, 64)
	if _, err := reopen(t, dir).Snapshot("pa"); err != nil {
		t.Fatal(err)
	}
	// Neighbours in name order, so that two workers can fail at once.
	corruptFrame(t, dir, "r43")
	first := corruptFrame(t, dir, "r42")
	pre, err := reopen(t, dir).Preload("pa")
	want := fmt.Sprintf(`store: run "r42" of "pa" (batch %d): codec: checksum mismatch`, first.Batch)
	if err == nil || err.Error() != want || !errors.Is(err, ErrDamaged) {
		t.Fatalf("Preload error %v, want %q marked damaged", err, want)
	}
	if pre != (PreloadStats{Spec: "pa", Runs: 64}) {
		t.Fatalf("Preload stats %+v", pre)
	}
}

// TestPreloadRacesLoadAndDelete runs Preload alongside loaders of
// every run and a deleter of some: every load answers with the stored
// run, all loads of a kept run share one cached copy, and deleted runs
// stay deleted.
func TestPreloadRacesLoadAndDelete(t *testing.T) {
	const n, loaders = 64, 4
	dir := seedDir(t, n)
	names := make([]string, n)
	want := make([]string, n)
	cold := reopen(t, dir)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
		r, err := cold.LoadRun("pa", names[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Tree.LabelSignature()
	}
	doomed := map[string]bool{"r3": true, "r11": true, "r17": true, "r20": true}
	s := reopen(t, dir)
	got := make([][]*wfrun.Run, loaders)
	var pre PreloadStats
	var preErr error
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(2 + loaders)
	go func() {
		defer wg.Done()
		<-start
		pre, preErr = s.Preload("pa")
	}()
	go func() {
		defer wg.Done()
		<-start
		for name := range doomed {
			if err := s.DeleteRun("pa", name); err != nil {
				t.Error(err)
			}
		}
	}()
	for l := 0; l < loaders; l++ {
		got[l] = make([]*wfrun.Run, n)
		go func(l int) {
			defer wg.Done()
			<-start
			for k := range names {
				i := (k + l*n/loaders) % n // each loader starts elsewhere
				r, err := s.LoadRun("pa", names[i])
				switch {
				case err == nil:
					got[l][i] = r
				case !doomed[names[i]] || !errors.Is(err, fs.ErrNotExist):
					t.Errorf("LoadRun(%s): %v", names[i], err)
				}
			}
		}(l)
	}
	close(start)
	wg.Wait()
	if preErr != nil {
		t.Fatalf("Preload: %v", preErr)
	}
	if pre.Runs < n-len(doomed) || pre.Runs > n {
		t.Fatalf("Preload counted %d runs, want %d to %d", pre.Runs, n-len(doomed), n)
	}
	for i, name := range names {
		final, err := s.LoadRun("pa", name)
		if doomed[name] {
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("deleted run %s loads: %v", name, err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		for l := range got {
			r := got[l][i]
			if r == nil {
				continue
			}
			if r.Tree.LabelSignature() != want[i] {
				t.Fatalf("loader %d got another run for %s", l, name)
			}
			if !doomed[name] && r != final {
				t.Fatalf("loader %d holds a copy of %s that is not the cached one", l, name)
			}
		}
	}
}

// TestColdStartReadsNoXML: the warm start provserved performs
// (Preload, then Snapshot) on a current-format repository reads no
// byte under <spec>/runs/ and no run XML — every run is decoded from
// its frame. The only XML it reads is the specification, pa/spec.xml,
// exactly once.
func TestColdStartReadsNoXML(t *testing.T) {
	dir := seedDir(t, 5)
	cb := &countingBackend{Backend: openTestBackend(t, dir), reads: map[string]int64{}}
	s := OpenBackend(cb)
	pre, err := s.Preload("pa")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot("pa"); err != nil {
		t.Fatal(err)
	}
	if pre.Runs != 5 {
		t.Fatalf("Preload = %+v, want 5 runs", pre)
	}
	for key, n := range cb.reads {
		if key != specXMLKey("pa") && (strings.HasPrefix(key, "pa/runs/") || strings.HasSuffix(key, ".xml")) {
			t.Errorf("warm start read %d bytes of %s", n, key)
		}
	}
	info, err := cb.Stat(specXMLKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	if n := cb.reads[specXMLKey("pa")]; n != info.Size {
		t.Errorf("warm start read %d bytes of pa/spec.xml, want one read of %d", n, info.Size)
	}
	if cb.reads[segmentKey("pa")] == 0 {
		t.Fatal("warm start read no frames; the counter is not wired")
	}
}

// mutationLog records every mutation a store makes through a backend.
type mutationLog struct {
	Backend
	mu  sync.Mutex
	ops []string
}

func (b *mutationLog) record(op string) {
	b.mu.Lock()
	b.ops = append(b.ops, op)
	b.mu.Unlock()
}

func (b *mutationLog) take() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	ops := b.ops
	b.ops = nil
	return ops
}

func (b *mutationLog) WriteFile(key string, data []byte) error {
	b.record("write " + key)
	return b.Backend.WriteFile(key, data)
}

func (b *mutationLog) Append(key string, data []byte, sync bool) error {
	b.record(fmt.Sprintf("append %s sync=%v", key, sync))
	return b.Backend.Append(key, data, sync)
}

func (b *mutationLog) Remove(key string) error {
	b.record("remove " + key)
	return b.Backend.Remove(key)
}

// TestCommitIsTwoAppends: once a spec has a checkpoint, a commit
// writes exactly its synced segment append and its synced ledger
// append, whatever the history. A reopened store replays the commit
// from the ledger; Snapshot then checkpoints once and is idempotent.
func TestCommitIsTwoAppends(t *testing.T) {
	dir := seedDir(t, 3)
	log := &mutationLog{Backend: openTestBackend(t, dir)}
	s := OpenBackend(log)
	if _, err := s.ListRuns("pa"); err != nil {
		t.Fatal(err)
	}
	log.take()
	sp, err := s.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveRun("pa", "r3", r); err != nil {
		t.Fatal(err)
	}
	want := []string{"append pa/snapshot/runs.seg sync=true", "append pa/snapshot/ledger.log sync=true"}
	if got := log.take(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("a commit wrote %q, want %q", got, want)
	}

	cold := OpenBackend(log)
	names, err := cold.ListRuns("pa")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names) != "[r0 r1 r2 r3]" {
		t.Fatalf("reopened store lists %v", names)
	}
	if _, err := cold.LoadRun("pa", "r3"); err != nil {
		t.Fatal(err)
	}
	requireVerifyOK(t, cold)
	log.take()
	for i := 0; i < 2; i++ {
		if _, err := cold.Snapshot("pa"); err != nil {
			t.Fatal(err)
		}
	}
	var checkpoints int
	for _, op := range log.take() {
		if op == "write "+manifestKey("pa") {
			checkpoints++
		}
	}
	if checkpoints != 1 {
		t.Fatalf("two Snapshots behind the ledger wrote %d checkpoints, want 1", checkpoints)
	}
	st := cold.snap("pa")
	st.mu.Lock()
	seq, ledgerSeq := st.manifest.Seq, st.ledgerSeq
	st.mu.Unlock()
	if seq != ledgerSeq || seq != 4 {
		t.Fatalf("checkpoint covers batch %d, ledger ends at %d; want both 4", seq, ledgerSeq)
	}
}

// TestWarmStartWritesNothing: once a repository is checkpointed, the
// reads a warm start and the cross-version queries make — PreloadAll,
// Snapshot of each spec, LoadSpec, SpecMapping and CrossDiff — write,
// append and remove nothing.
func TestWarmStartWritesNothing(t *testing.T) {
	dir := t.TempDir()
	seedLineage(t, dir)
	log := &mutationLog{Backend: openTestBackend(t, dir)}
	specs, err := OpenBackend(log).ListSpecs()
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := OpenBackend(log)
	for _, name := range specs {
		if _, err := checkpoint.Snapshot(name); err != nil {
			t.Fatal(err)
		}
	}
	log.take()

	s := OpenBackend(log)
	if _, err := s.PreloadAll(); err != nil {
		t.Fatal(err)
	}
	for _, name := range specs {
		if _, err := s.Snapshot(name); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LoadSpec(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, linked, err := s.SpecMapping("demo", "demo-v2"); err != nil || !linked {
		t.Fatalf("SpecMapping: linked=%v err=%v", linked, err)
	}
	if _, _, err := s.CrossDiff("demo", runName(0), "demo-v2", runName(1), cost.Unit{}); err != nil {
		t.Fatal(err)
	}
	if ops := log.take(); len(ops) != 0 {
		t.Fatalf("a warm start wrote %q, want nothing", ops)
	}
}
