package store

// The boundaries of a spec load: a cold load reads the ledger, the
// checkpoint and the segment's size and nothing else; it reads the
// current format only and writes nothing; the upgrade pass at open
// writes nothing on a current repository; and a frame the index
// cannot find is damage named by run, spec and batch.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
)

// callLog is a Backend that records every call as "Op key".
type callLog struct {
	Backend
	mu    sync.Mutex
	calls []string
}

func (b *callLog) record(op, key string) {
	b.mu.Lock()
	b.calls = append(b.calls, op+" "+key)
	b.mu.Unlock()
}

// take returns the calls recorded since the last take.
func (b *callLog) take() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.calls
	b.calls = nil
	return out
}

func (b *callLog) ReadFile(key string) ([]byte, error) {
	b.record("ReadFile", key)
	return b.Backend.ReadFile(key)
}

func (b *callLog) WriteFile(key string, data []byte) error {
	b.record("WriteFile", key)
	return b.Backend.WriteFile(key, data)
}

func (b *callLog) Append(key string, data []byte, sync bool) error {
	b.record("Append", key)
	return b.Backend.Append(key, data, sync)
}

func (b *callLog) ReadAt(key string, p []byte, off int64) error {
	b.record("ReadAt", key)
	return b.Backend.ReadAt(key, p, off)
}

func (b *callLog) Stat(key string) (BlobInfo, error) {
	b.record("Stat", key)
	return b.Backend.Stat(key)
}

func (b *callLog) List(dir string) ([]Entry, error) {
	b.record("List", dir)
	return b.Backend.List(dir)
}

func (b *callLog) Remove(key string) error {
	b.record("Remove", key)
	return b.Backend.Remove(key)
}

// onBothBackends runs f once over each backend kind the suite can
// select, so a test covers both whatever PROVSTORE_TEST_BACKEND says.
func onBothBackends(t *testing.T, f func(t *testing.T)) {
	for _, kind := range []string{"fs", "memory"} {
		t.Run(kind, func(t *testing.T) {
			t.Setenv("PROVSTORE_TEST_BACKEND", kind)
			f(t)
		})
	}
}

// coldLog opens a fresh store over dir's backend, logging its calls.
func coldLog(t *testing.T, dir string) (*Store, *callLog) {
	t.Helper()
	be := &callLog{Backend: openTestBackend(t, dir)}
	return OpenBackend(be), be
}

// threeCallLoad is every backend call a cold load of a checkpointed
// current-format spec "pa" makes.
var threeCallLoad = []string{
	"ReadFile pa/snapshot/ledger.log",
	"ReadFile pa/snapshot/manifest.json",
	"Stat pa/snapshot/runs.seg",
}

func requireCalls(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s made calls\n%s\nwant\n%s", what, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// repoKeys returns every key of a backend with its bytes.
func repoKeys(t *testing.T, be Backend) map[string]string {
	t.Helper()
	out := map[string]string{}
	var walk func(dir string)
	walk = func(dir string) {
		entries, err := be.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			key := e.Name
			if dir != "" {
				key = dir + "/" + e.Name
			}
			if e.Dir {
				walk(key)
				continue
			}
			data, err := be.ReadFile(key)
			if err != nil {
				t.Fatal(err)
			}
			out[key] = string(data)
		}
	}
	walk("")
	return out
}

// TestColdListRunsMakesThreeCalls pins a cold ListRuns on a
// checkpointed spec to the ledger, the checkpoint and the segment's
// size, in that order.
func TestColdListRunsMakesThreeCalls(t *testing.T) {
	onBothBackends(t, func(t *testing.T) {
		dir := seedDir(t, 10)
		if _, err := reopen(t, dir).Snapshot("pa"); err != nil {
			t.Fatal(err)
		}
		s, be := coldLog(t, dir)
		names, err := s.ListRuns("pa")
		if err != nil || len(names) != 10 {
			t.Fatalf("ListRuns = %v, %v", names, err)
		}
		requireCalls(t, "a cold ListRuns", be.take(), threeCallLoad)
	})
}

// TestOpenCurrentRepositoryWritesNothing: the upgrade pass over a
// current-format repository, checkpointed or not, loads every spec and
// writes, appends and removes nothing; the specs stay loaded, so a
// ListRuns afterwards makes no backend call.
func TestOpenCurrentRepositoryWritesNothing(t *testing.T) {
	onBothBackends(t, func(t *testing.T) {
		dir := seedDir(t, 4)
		for _, checkpointed := range []bool{false, true} {
			if checkpointed {
				if _, err := reopen(t, dir).Snapshot("pa"); err != nil {
					t.Fatal(err)
				}
			}
			s, be := coldLog(t, dir)
			if err := upgradeAll(s); err != nil {
				t.Fatal(err)
			}
			for _, call := range be.take() {
				if op, _, _ := strings.Cut(call, " "); op == "WriteFile" || op == "Append" || op == "Remove" {
					t.Fatalf("upgrade pass over a current repository (checkpointed %v): %s", checkpointed, call)
				}
			}
			if _, err := s.ListRuns("pa"); err != nil {
				t.Fatal(err)
			}
			requireCalls(t, "ListRuns after the upgrade pass", be.take(), nil)
		}
	})
}

// TestOpenBackendRefusesOldFormat: without the upgrade pass, a spec an
// older release wrote is refused as damage naming the spec and the
// upgrade, and the refusal leaves every key byte-identical.
func TestOpenBackendRefusesOldFormat(t *testing.T) {
	onBothBackends(t, func(t *testing.T) {
		dir := seedDir(t, 3)
		if _, err := reopen(t, dir).Snapshot("pa"); err != nil {
			t.Fatal(err)
		}
		be := openTestBackend(t, dir)
		downgradeLedger(t, be)
		before := repoKeys(t, be)
		s := reopen(t, dir)
		for what, err := range map[string]error{
			"ListRuns": func() error { _, err := s.ListRuns("pa"); return err }(),
			"LoadRun":  func() error { _, err := s.LoadRun("pa", "r0"); return err }(),
			"Preload":  func() error { _, err := s.Preload("pa"); return err }(),
		} {
			if !errors.Is(err, ErrDamaged) || !strings.Contains(err.Error(), `"pa"`) ||
				!strings.Contains(err.Error(), "opening the repository with store.Open upgrades it") {
				t.Fatalf("%s over an older spec = %v, want ErrDamaged naming the spec and the upgrade", what, err)
			}
		}
		after := repoKeys(t, be)
		if len(after) != len(before) {
			t.Fatalf("keys changed: %d → %d", len(before), len(after))
		}
		for key, data := range before {
			if after[key] != data {
				t.Fatalf("a refused load changed %s", key)
			}
		}
	})
}

// crashCompaction leaves spec "pa" of dir as a compaction that crashed
// between its segment rewrite and its checkpoint leaves it: a rewritten
// segment under a checkpoint of pre-compaction offsets.
func crashCompaction(t *testing.T, dir string) {
	t.Helper()
	s := reopen(t, dir)
	if _, err := s.ImportRuns("pa", genRunXML(t, s, 5, 13, "k"), 2); err != nil {
		t.Fatal(err)
	}
	// A hole at the front guarantees compaction shifts every offset.
	if err := s.DeleteRun("pa", "k0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot("pa"); err != nil {
		t.Fatal(err)
	}
	stale, err := s.Backend().ReadFile(manifestKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact("pa"); err != nil {
		t.Fatal(err)
	}
	if err := s.Backend().WriteFile(manifestKey("pa"), stale); err != nil {
		t.Fatal(err)
	}
}

// TestCrashedCompactionRebuildsOnce: after a crashed compaction, the
// first run load finds its frame moved, rebuilds the index by replaying
// the ledger, and checkpoints it; every run then loads. A second cold
// open makes only the three-call load, and reads a run with one ReadAt.
func TestCrashedCompactionRebuildsOnce(t *testing.T) {
	onBothBackends(t, func(t *testing.T) {
		dir := seedDir(t, 0)
		crashCompaction(t, dir)
		s, be := coldLog(t, dir)
		want := map[string][]byte{}
		for _, run := range []string{"k1", "k2", "k3", "k4"} {
			r, err := s.LoadRun("pa", run)
			if err != nil {
				t.Fatalf("load %s after a crashed compaction: %v", run, err)
			}
			want[run] = []byte(r.Tree.LabelSignature())
		}
		writes := 0
		for _, call := range be.take() {
			if strings.HasPrefix(call, "WriteFile ") {
				writes++
				if call != "WriteFile "+manifestKey("pa") {
					t.Fatalf("the rebuild wrote %s", call)
				}
			}
		}
		if writes != 1 {
			t.Fatalf("the rebuild wrote %d checkpoints, want 1", writes)
		}
		requireVerifyOK(t, s)

		cold, be := coldLog(t, dir)
		if _, err := cold.ListRuns("pa"); err != nil {
			t.Fatal(err)
		}
		requireCalls(t, "a cold ListRuns after the rebuild", be.take(), threeCallLoad)
		r, err := cold.LoadRun("pa", "k3")
		if err != nil || !bytes.Equal([]byte(r.Tree.LabelSignature()), want["k3"]) {
			t.Fatalf("LoadRun k3 after the rebuild = %v", err)
		}
		requireCalls(t, "LoadRun after the rebuild", be.take(), []string{"ReadFile pa/spec.xml", "ReadAt pa/snapshot/runs.seg"})
	})
}

// TestMissingFrameNamesBatch: a run the ledger attests whose frame the
// segment no longer holds (the checkpoint is lost and the segment cut
// short) fails LoadRun and Preload without a segment read, with
// ErrDamaged naming the run, the spec, the batch and the missing
// frame; VerifyLedger names the batch.
func TestMissingFrameNamesBatch(t *testing.T) {
	onBothBackends(t, func(t *testing.T) {
		dir := seedDir(t, 3)
		e, err := reopen(t, dir).manifestEntry("pa", "r2")
		if err != nil {
			t.Fatal(err)
		}
		be := openTestBackend(t, dir)
		seg, err := be.ReadFile(segmentKey("pa"))
		if err != nil {
			t.Fatal(err)
		}
		if err := be.WriteFile(segmentKey("pa"), seg[:e.Offset]); err != nil {
			t.Fatal(err)
		}
		if err := be.Remove(manifestKey("pa")); err != nil && !isNotExist(err) {
			t.Fatal(err)
		}
		want := fmt.Sprintf(`store: run "r2" of "pa" (batch %d): frame not found in the segment`, e.Batch)

		s, logged := coldLog(t, dir)
		if _, err := s.ListRuns("pa"); err != nil {
			t.Fatal(err)
		}
		logged.take()
		if _, err := s.LoadRun("pa", "r2"); err == nil || err.Error() != want || !errors.Is(err, ErrDamaged) {
			t.Fatalf("LoadRun = %v, want %q marked damaged", err, want)
		}
		for _, call := range logged.take() {
			if strings.Contains(call, "runs.seg") {
				t.Fatalf("LoadRun of a missing frame touched the segment: %s", call)
			}
		}
		if _, err := reopen(t, dir).Preload("pa"); err == nil || err.Error() != want || !errors.Is(err, ErrDamaged) {
			t.Fatalf("Preload = %v, want %q marked damaged", err, want)
		}
		report, err := reopen(t, dir).VerifyLedger("pa")
		if err != nil {
			t.Fatal(err)
		}
		if report.OK() || report.Issues[0].Batch != e.Batch || report.Issues[0].Run != "r2" {
			t.Fatalf("VerifyLedger = %+v, want an issue naming r2's batch %d", report, e.Batch)
		}
	})
}

// TestCompactionCarriesMissingFrame: compaction moves the frames the
// segment holds and carries an entry whose frame is missing (offset
// -1) through unchanged, so a lost frame stays that one run's damage.
// After more commits and a delete, Compact reclaims every dead byte,
// the other runs load, r2 still fails naming its batch, and
// VerifyLedger still names that batch.
func TestCompactionCarriesMissingFrame(t *testing.T) {
	onBothBackends(t, func(t *testing.T) {
		dir := seedDir(t, 3)
		e, err := reopen(t, dir).manifestEntry("pa", "r2")
		if err != nil {
			t.Fatal(err)
		}
		be := openTestBackend(t, dir)
		seg, err := be.ReadFile(segmentKey("pa"))
		if err != nil {
			t.Fatal(err)
		}
		if err := be.WriteFile(segmentKey("pa"), seg[:e.Offset]); err != nil {
			t.Fatal(err)
		}
		if err := be.Remove(manifestKey("pa")); err != nil && !isNotExist(err) {
			t.Fatal(err)
		}

		s := reopen(t, dir)
		sp, err := s.LoadSpec("pa")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for _, name := range []string{"r3", "r0"} {
			r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SaveRun("pa", name, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.DeleteRun("pa", "r1"); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact("pa"); err != nil {
			t.Fatalf("Compact = %v", err)
		}
		stats, err := s.Snapshot("pa")
		if err != nil {
			t.Fatal(err)
		}
		fi, err := s.Backend().Stat(segmentKey("pa"))
		if err != nil {
			t.Fatal(err)
		}
		if stats.DeadBytes != 0 || fi.Size != stats.LiveBytes {
			t.Fatalf("after Compact: %+v over a %d-byte segment, want no dead bytes", stats, fi.Size)
		}

		cold := reopen(t, dir)
		for _, name := range []string{"r0", "r3"} {
			if _, err := cold.LoadRun("pa", name); err != nil {
				t.Fatalf("LoadRun %s after Compact = %v", name, err)
			}
		}
		want := fmt.Sprintf(`store: run "r2" of "pa" (batch %d): frame not found in the segment`, e.Batch)
		if _, err := cold.LoadRun("pa", "r2"); err == nil || err.Error() != want || !errors.Is(err, ErrDamaged) {
			t.Fatalf("LoadRun r2 = %v, want %q marked damaged", err, want)
		}
		report, err := cold.VerifyLedger("pa")
		if err != nil {
			t.Fatal(err)
		}
		if report.OK() || report.Issues[0].Batch != e.Batch || report.Issues[0].Run != "r2" {
			t.Fatalf("VerifyLedger = %+v, want an issue naming r2's batch %d", report, e.Batch)
		}
	})
}
