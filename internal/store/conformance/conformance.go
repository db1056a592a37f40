// Package conformance is the executable contract of store.Backend: a
// reusable test suite every storage backend — filesystem, in-memory,
// or a fault-injection decorator wrapping either — must pass
// identically before the repository may run on it.
//
// A backend test hands RunConformance a factory that opens the SAME
// underlying state on every call ("reopen" semantics — for stateful
// in-process backends the factory simply returns the same instance):
//
//	func TestMyBackend(t *testing.T) {
//		dir := t.TempDir()
//		conformance.RunConformance(t, func() store.Backend {
//			be, err := store.NewFSBackend(dir)
//			if err != nil {
//				t.Fatal(err)
//			}
//			return be
//		})
//	}
//
// The suite checks two layers. The blob layer: read/write byte
// identity, append-exactly semantics, ReadAt windows, listing,
// canonical not-exist errors (errors.Is(err, fs.ErrNotExist) AND
// os.IsNotExist), atomic WriteFile visibility under concurrent
// readers and concurrent writers of one key, and persistence across
// reopen. The repository layer, run through a *store.Store over the
// backend: import→read frame identity, no run documents stored by
// any write path, one run-set version step per bulk import, an
// overwrite replacing the stored frame, ledger proof round-trips
// across reopen, all-or-nothing bulk validation, and tolerance of
// torn trailing writes in both the ledger log and live-run event
// journals (the crash shapes a power loss mid-append leaves behind).
package conformance

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// RunConformance runs the full backend contract against the state
// opened by the factory. Each call to open must return a backend over
// the same underlying state; the suite uses repeated calls to model
// process restarts. Subtests use disjoint key namespaces, so one
// factory state serves the whole suite.
func RunConformance(t *testing.T, open func() store.Backend) {
	t.Helper()
	t.Run("BlobReadWrite", func(t *testing.T) { testBlobReadWrite(t, open) })
	t.Run("BlobAppend", func(t *testing.T) { testBlobAppend(t, open) })
	t.Run("BlobReadAt", func(t *testing.T) { testBlobReadAt(t, open) })
	t.Run("BlobList", func(t *testing.T) { testBlobList(t, open) })
	t.Run("BlobNotExist", func(t *testing.T) { testBlobNotExist(t, open) })
	t.Run("WriteFileAtomic", func(t *testing.T) { testWriteFileAtomic(t, open) })
	t.Run("WriteFileSameKeyConcurrent", func(t *testing.T) { testWriteFileSameKey(t, open) })
	t.Run("ImportReadIdentity", func(t *testing.T) { testImportReadIdentity(t, open) })
	t.Run("NoRunDocumentsStored", func(t *testing.T) { testNoRunDocuments(t, open) })
	t.Run("ExactlyOneNotification", func(t *testing.T) { testExactlyOneNotification(t, open) })
	t.Run("SnapshotFreshnessDemotion", func(t *testing.T) { testSnapshotFreshness(t, open) })
	t.Run("LedgerProofAcrossReopen", func(t *testing.T) { testLedgerProofReopen(t, open) })
	t.Run("BulkAllOrNothing", func(t *testing.T) { testBulkAllOrNothing(t, open) })
	t.Run("TornLedgerTail", func(t *testing.T) { testTornLedgerTail(t, open) })
	t.Run("TornLiveJournalTail", func(t *testing.T) { testTornLiveTail(t, open) })
}

// --- blob layer ----------------------------------------------------

func testBlobReadWrite(t *testing.T, open func() store.Backend) {
	be := open()
	key := "c-rw/spec.xml"
	want := []byte("<spec>hello</spec>\n")
	if err := be.WriteFile(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := be.ReadFile(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
	// The returned slice is the caller's: mutating it must not corrupt
	// the stored blob.
	for i := range got {
		got[i] = 'X'
	}
	again, err := be.ReadFile(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("mutating a read buffer corrupted the stored blob")
	}
	// Overwrite replaces wholesale.
	want2 := []byte("replaced")
	if err := be.WriteFile(key, want2); err != nil {
		t.Fatal(err)
	}
	if got, _ := be.ReadFile(key); !bytes.Equal(got, want2) {
		t.Fatalf("after overwrite read %q, want %q", got, want2)
	}
	// Reopen: the write persisted.
	if got, err := open().ReadFile(key); err != nil || !bytes.Equal(got, want2) {
		t.Fatalf("after reopen read %q, %v; want %q", got, err, want2)
	}
	info, err := be.Stat(key)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len(want2)) {
		t.Fatalf("Stat size = %d, want %d", info.Size, len(want2))
	}
}

func testBlobAppend(t *testing.T, open func() store.Backend) {
	be := open()
	key := "c-append/snapshot/ledger.log"
	// Append to a missing key creates it.
	if err := be.Append(key, []byte("one\n"), false); err != nil {
		t.Fatal(err)
	}
	if err := be.Append(key, []byte("two\n"), true); err != nil {
		t.Fatal(err)
	}
	// An empty append is a no-op, not an error.
	if err := be.Append(key, nil, false); err != nil {
		t.Fatal(err)
	}
	want := []byte("one\ntwo\n")
	if got, err := be.ReadFile(key); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after appends read %q, %v; want %q", got, err, want)
	}
	// Reopen: appends persisted in order.
	if got, err := open().ReadFile(key); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after reopen read %q, %v; want %q", got, err, want)
	}
}

func testBlobReadAt(t *testing.T, open func() store.Backend) {
	be := open()
	key := "c-readat/snapshot/runs.seg"
	if err := be.WriteFile(key, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4)
	if err := be.ReadAt(key, p, 3); err != nil {
		t.Fatal(err)
	}
	if string(p) != "3456" {
		t.Fatalf("ReadAt(3,4) = %q, want 3456", p)
	}
	if err := be.ReadAt(key, p, 0); err != nil || string(p) != "0123" {
		t.Fatalf("ReadAt(0,4) = %q, %v", p, err)
	}
	// A window past the end must error, never return short data.
	if err := be.ReadAt(key, p, 8); err == nil {
		t.Fatal("ReadAt past end succeeded")
	}
	if err := be.ReadAt(key, p, 100); err == nil {
		t.Fatal("ReadAt far past end succeeded")
	}
}

func testBlobList(t *testing.T, open func() store.Backend) {
	be := open()
	// A missing directory lists as empty, not as an error.
	if entries, err := be.List("c-list-missing"); err != nil || len(entries) != 0 {
		t.Fatalf("List of missing dir = %v, %v; want empty, nil", entries, err)
	}
	for _, key := range []string{"c-list/spec.xml", "c-list/runs/r1.xml", "c-list/runs/r2.xml"} {
		if err := be.WriteFile(key, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	root, err := be.List("")
	if err != nil {
		t.Fatal(err)
	}
	foundRoot := false
	for _, e := range root {
		if e.Name == "c-list" {
			foundRoot = true
			if !e.Dir {
				t.Fatal("c-list listed as a file at the root")
			}
		}
	}
	if !foundRoot {
		t.Fatalf("root listing %v misses c-list", root)
	}
	inside, err := be.List("c-list")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	dirs := make(map[string]bool)
	for _, e := range inside {
		names = append(names, e.Name)
		dirs[e.Name] = e.Dir
	}
	if len(names) != 2 || dirs["spec.xml"] || !dirs["runs"] {
		t.Fatalf("List(c-list) = %v dirs=%v", names, dirs)
	}
	runs, err := be.List("c-list/runs")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Name != "r1.xml" || runs[1].Name != "r2.xml" {
		t.Fatalf("List(c-list/runs) = %v, want sorted r1.xml r2.xml", runs)
	}
	// Remove drops the entry from listings.
	if err := be.Remove("c-list/runs/r1.xml"); err != nil {
		t.Fatal(err)
	}
	runs, _ = be.List("c-list/runs")
	if len(runs) != 1 || runs[0].Name != "r2.xml" {
		t.Fatalf("after Remove, List = %v", runs)
	}
}

func testBlobNotExist(t *testing.T, open func() store.Backend) {
	be := open()
	const key = "c-missing/never/was.xml"
	check := func(op string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s of a missing key succeeded", op)
		}
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s error %v does not satisfy errors.Is(fs.ErrNotExist)", op, err)
		}
		if !os.IsNotExist(err) {
			t.Fatalf("%s error %v does not satisfy os.IsNotExist", op, err)
		}
	}
	_, err := be.ReadFile(key)
	check("ReadFile", err)
	_, err = be.Stat(key)
	check("Stat", err)
	check("Remove", be.Remove(key))
	check("ReadAt", be.ReadAt(key, make([]byte, 1), 0))
}

func testWriteFileAtomic(t *testing.T, open func() store.Backend) {
	be := open()
	key := "c-atomic/spec.xml"
	a := bytes.Repeat([]byte{'a'}, 1<<15)
	b := bytes.Repeat([]byte{'b'}, 1<<15)
	if err := be.WriteFile(key, a); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			payload := a
			if i%2 == 1 {
				payload = b
			}
			if err := be.WriteFile(key, payload); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		got, err := be.ReadFile(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(a) {
			t.Fatalf("reader saw a %d-byte torso, want %d", len(got), len(a))
		}
		for _, c := range got {
			if c != got[0] {
				t.Fatal("reader saw a mixed old/new blob; WriteFile is not atomic")
			}
		}
	}
}

// testWriteFileSameKey races several writers of one key, each with
// its own payload: every write must succeed (no shared temp file), and
// the key must end holding exactly one writer's complete payload.
func testWriteFileSameKey(t *testing.T, open func() store.Backend) {
	be := open()
	const key = "c-samekey/snapshot/manifest.json"
	const writers, rounds = 4, 20
	payload := func(w int) []byte { return bytes.Repeat([]byte{byte('a' + w)}, 1<<14+w) }
	var wg sync.WaitGroup
	errs := make(chan error, writers*rounds)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := be.WriteFile(key, payload(w)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent WriteFile of one key: %v", err)
	}
	for _, b := range []store.Backend{be, open()} {
		got, err := b.ReadFile(key)
		if err != nil || len(got) == 0 || got[0] < 'a' || !bytes.Equal(got, payload(int(got[0]-'a'))) {
			t.Fatalf("key holds %d bytes (%v), not one writer's payload", len(got), err)
		}
	}
	entries, err := be.List("c-samekey/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "manifest.json" {
		t.Fatalf("List after concurrent writes = %v, want only manifest.json", entries)
	}
}

// --- repository layer ----------------------------------------------

// seedSpec saves the PA catalog workflow under specName and returns
// the store's canonical spec object.
func seedSpec(t *testing.T, st *store.Store, specName string) {
	t.Helper()
	pa, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSpec(specName, pa); err != nil {
		t.Fatal(err)
	}
}

// genRuns renders n fresh random runs of a stored spec as import-ready
// RunData.
func genRuns(t *testing.T, st *store.Store, specName string, n int, seed int64, prefix string) []store.RunData {
	t.Helper()
	sp, err := st.LoadSpec(specName)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]store.RunData, n)
	for i := range out {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		name := fmt.Sprintf("%s%d", prefix, i)
		if err := wfxml.EncodeRun(&buf, r, name); err != nil {
			t.Fatal(err)
		}
		out[i] = store.RunData{Name: name, XML: buf.Bytes()}
	}
	return out
}

func testImportReadIdentity(t *testing.T, open func() store.Backend) {
	const spec = "c-import"
	st := store.OpenBackend(open())
	seedSpec(t, st, spec)
	batch := genRuns(t, st, spec, 3, 1, "r")
	if _, err := st.ImportRuns(spec, batch, 2); err != nil {
		t.Fatal(err)
	}
	// A cold store over the same state decodes, frame for frame, what
	// parsing each imported document produces.
	cold := store.OpenBackend(open())
	sp, err := cold.LoadSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range batch {
		r, err := cold.LoadRun(spec, rd.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("run %s invalid after round-trip: %v", rd.Name, err)
		}
		parsed, err := wfxml.DecodeRun(bytes.NewReader(rd.XML), sp)
		if err != nil {
			t.Fatal(err)
		}
		got, err1 := codec.EncodeRun(r)
		want, err2 := codec.EncodeRun(parsed)
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			t.Fatalf("stored frame of %s differs from the parse of the imported document", rd.Name)
		}
	}
	names, err := cold.ListRuns(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("ListRuns = %v, want 3 runs", names)
	}
}

// testNoRunDocuments drives every write path — a one-run commit (the
// sync import), a bulk import, SaveRun and live completion — and
// requires that none leaves a key under <spec>/runs/: the frame is the
// only stored copy of a run.
func testNoRunDocuments(t *testing.T, open func() store.Backend) {
	const spec = "c-nodocs"
	st := store.OpenBackend(open())
	seedSpec(t, st, spec)
	sp, err := st.LoadSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	one := genRuns(t, st, spec, 1, 21, "sync")[0]
	r, err := wfxml.DecodeRun(bytes.NewReader(one.XML), sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ImportParsed(spec, []store.ParsedRun{{Name: one.Name, Run: r}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ImportRuns(spec, genRuns(t, st, spec, 3, 22, "bulk"), 2); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	saved, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRun(spec, "saved", saved); err != nil {
		t.Fatal(err)
	}
	liveRun, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendLiveEvents(spec, "live", wfrun.Events(liveRun)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CompleteLiveRun(spec, "live"); err != nil {
		t.Fatal(err)
	}
	cold := store.OpenBackend(open())
	if names, err := cold.ListRuns(spec); err != nil || len(names) != 6 {
		t.Fatalf("ListRuns = %v, %v; want 6 runs", names, err)
	}
	for _, be := range []store.Backend{st.Backend(), cold.Backend()} {
		entries, err := be.List(spec + "/runs")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("write paths left run documents behind: %v", entries)
		}
	}
}

// testExactlyOneNotification: a bulk import of four runs advances the
// spec's run-set version exactly one step, and a delete one more.
func testExactlyOneNotification(t *testing.T, open func() store.Backend) {
	const spec = "c-notify"
	st := store.OpenBackend(open())
	seedSpec(t, st, spec)
	v0 := st.RunsVersion(spec)
	batch := genRuns(t, st, spec, 4, 2, "n")
	if _, err := st.ImportRuns(spec, batch, 2); err != nil {
		t.Fatal(err)
	}
	if v := st.RunsVersion(spec); v != v0+1 {
		t.Fatalf("bulk import of 4 runs moved the run-set version %d → %d, want one step", v0, v)
	}
	if err := st.DeleteRun(spec, batch[0].Name); err != nil {
		t.Fatal(err)
	}
	if v := st.RunsVersion(spec); v != v0+2 {
		t.Fatalf("delete moved the run-set version to %d, want %d", v, v0+2)
	}
}

// testSnapshotFreshness: an overwrite replaces the stored frame — a
// cold store serves the new run, never the superseded frame, and the
// old frame's bytes are dead.
func testSnapshotFreshness(t *testing.T, open func() store.Backend) {
	const spec = "c-fresh"
	st := store.OpenBackend(open())
	seedSpec(t, st, spec)
	if _, err := st.ImportRuns(spec, genRuns(t, st, spec, 1, 3, "r"), 1); err != nil {
		t.Fatal(err)
	}
	before, err := st.RunProof(spec, "r0")
	if err != nil {
		t.Fatal(err)
	}
	fresh := genRuns(t, st, spec, 1, 99, "r")
	if _, err := st.ImportRuns(spec, fresh, 1); err != nil {
		t.Fatal(err)
	}
	cold := store.OpenBackend(open())
	got, err := cold.LoadRun(spec, "r0")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := cold.LoadSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wfxml.DecodeRun(bytes.NewReader(fresh[0].XML), sp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tree.LabelSignature() != want.Tree.LabelSignature() {
		t.Fatal("cold store served the pre-overwrite frame")
	}
	after, err := cold.RunProof(spec, "r0")
	if err != nil {
		t.Fatal(err)
	}
	if after.Hash == before.Hash || after.Batch <= before.Batch {
		t.Fatalf("overwrite kept frame %s of batch %d", before.Hash, before.Batch)
	}
	stats, err := cold.Snapshot(spec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 1 || stats.DeadBytes == 0 {
		t.Fatalf("after overwrite Snapshot = %+v, want 1 run and the old frame dead", stats)
	}
}

func testLedgerProofReopen(t *testing.T, open func() store.Backend) {
	const spec = "c-ledger"
	st := store.OpenBackend(open())
	seedSpec(t, st, spec)
	if _, err := st.ImportRuns(spec, genRuns(t, st, spec, 3, 4, "p"), 2); err != nil {
		t.Fatal(err)
	}
	proof := func(s *store.Store, run string) []byte {
		t.Helper()
		p, err := s.RunProof(spec, run)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.VerifyProof(p); err != nil {
			t.Fatalf("proof of %s does not verify: %v", run, err)
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	before := map[string][]byte{}
	for _, run := range []string{"p0", "p1", "p2"} {
		before[run] = proof(st, run)
	}
	cold := store.OpenBackend(open())
	for run, want := range before {
		if got := proof(cold, run); !bytes.Equal(got, want) {
			t.Fatalf("proof of %s drifted across reopen:\n before %s\n after  %s", run, want, got)
		}
	}
	// The chain continues across the reopen instead of restarting.
	if _, err := cold.ImportRuns(spec, genRuns(t, cold, spec, 1, 5, "q"), 1); err != nil {
		t.Fatal(err)
	}
	heads, _, err := cold.LedgerHeads()
	if err != nil {
		t.Fatal(err)
	}
	if heads[spec].Batches != 2 {
		t.Fatalf("post-reopen import chained to batch %d, want 2", heads[spec].Batches)
	}
	report, err := cold.VerifyLedger(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("ledger verify red after reopen: %+v", report.Issues)
	}
}

func testBulkAllOrNothing(t *testing.T, open func() store.Backend) {
	const spec = "c-bulk"
	st := store.OpenBackend(open())
	seedSpec(t, st, spec)
	good := genRuns(t, st, spec, 2, 6, "g")
	// One malformed document must reject the whole batch untouched.
	batch := append(append([]store.RunData(nil), good...),
		store.RunData{Name: "bad", XML: []byte("<not-a-run")})
	if _, err := st.ImportRuns(spec, batch, 2); err == nil {
		t.Fatal("batch with a malformed document imported")
	}
	names, err := st.ListRuns(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("failed batch left runs behind: %v", names)
	}
	// So must a duplicate name.
	dup := append(append([]store.RunData(nil), good...), good[0])
	if _, err := st.ImportRuns(spec, dup, 2); !errors.Is(err, store.ErrDuplicateRun) {
		t.Fatalf("duplicate batch error = %v, want ErrDuplicateRun", err)
	}
	if names, _ := st.ListRuns(spec); len(names) != 0 {
		t.Fatalf("duplicate batch left runs behind: %v", names)
	}
}

func testTornLedgerTail(t *testing.T, open func() store.Backend) {
	const spec = "c-torn-ledger"
	st := store.OpenBackend(open())
	seedSpec(t, st, spec)
	if _, err := st.ImportRuns(spec, genRuns(t, st, spec, 2, 7, "a"), 1); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves an unterminated fragment at the tail of
	// the ledger log.
	if err := open().Append(spec+"/snapshot/ledger.log", []byte(`{"v":1,"seq":2,"torn`), false); err != nil {
		t.Fatal(err)
	}
	cold := store.OpenBackend(open())
	// The next import must NOT weld onto the fragment: the chain stays
	// verifiable and every proof still anchors.
	if _, err := cold.ImportRuns(spec, genRuns(t, cold, spec, 2, 8, "b"), 1); err != nil {
		t.Fatal(err)
	}
	report, err := cold.VerifyLedger(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("torn ledger tail broke verification: %+v", report.Issues)
	}
	for _, run := range []string{"a0", "a1", "b0", "b1"} {
		p, err := cold.RunProof(spec, run)
		if err != nil {
			t.Fatalf("proof of %s after torn tail: %v", run, err)
		}
		if _, err := store.VerifyProof(p); err != nil {
			t.Fatalf("proof of %s does not verify after torn tail: %v", run, err)
		}
	}
}

func testTornLiveTail(t *testing.T, open func() store.Backend) {
	const spec = "c-torn-live"
	st := store.OpenBackend(open())
	rng := rand.New(rand.NewSource(13))
	sp, err := gen.RandomSpec(gen.SpecConfig{Edges: 10, SeriesRatio: 1.5, Forks: 1, Loops: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSpec(spec, sp); err != nil {
		t.Fatal(err)
	}
	canon, err := st.LoadSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	run, err := gen.RandomRun(canon, gen.DefaultRunParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	evs := wfrun.Events(run)
	half := len(evs) / 2
	if _, err := st.AppendLiveEvents(spec, "r", evs[:half]); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: an unterminated fragment at the journal tail.
	if err := open().Append(spec+"/live/r.events", []byte(`{"from":"torn`), false); err != nil {
		t.Fatal(err)
	}
	cold := store.OpenBackend(open())
	status, ok, err := cold.LiveStatusOf(spec, "r")
	if err != nil || !ok {
		t.Fatalf("live status after torn tail: ok=%v err=%v", ok, err)
	}
	if status.Events != half {
		t.Fatalf("replayed %d events, want the %d complete ones", status.Events, half)
	}
	// The run finishes normally from the repaired journal.
	if _, err := cold.AppendLiveEvents(spec, "r", evs[half:]); err != nil {
		t.Fatal(err)
	}
	done, err := cold.CompleteLiveRun(spec, "r")
	if err != nil {
		t.Fatal(err)
	}
	if err := done.Validate(); err != nil {
		t.Fatalf("completed run invalid after torn-tail recovery: %v", err)
	}
}
