package faultfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"syscall"
	"testing"

	"repro/internal/gen"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/conformance"
	"repro/internal/store/faultfs"
	"repro/internal/wfrun"
	"repro/internal/wfxml"
)

// forEachBackend runs a crash scenario over every real backend kind.
func forEachBackend(t *testing.T, f func(t *testing.T, open func() store.Backend)) {
	t.Run("fs", func(t *testing.T) {
		dir := t.TempDir()
		f(t, func() store.Backend {
			be, err := store.NewFSBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			return be
		})
	})
	t.Run("memory", func(t *testing.T) {
		be := store.NewMemoryBackend()
		f(t, func() store.Backend { return be })
	})
}

// catalog returns the deterministic PA workflow.
func catalog(t *testing.T) *spec.Spec {
	t.Helper()
	sp, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// makeBatch renders n runs of sp as RunData; same seed, same bytes —
// so the pristine and the faulted repository ingest identical input.
func makeBatch(t *testing.T, sp *spec.Spec, n int, seed int64, prefix string) []store.RunData {
	t.Helper()
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

const specName = "crash"

// exported returns every run document ExportSpec renders for the spec.
func exported(t *testing.T, st *store.Store) map[string][]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.ExportSpec(specName, nil, &buf); err != nil {
		t.Fatal(err)
	}
	runs, err := store.ReadRunTar(&buf, 1<<24, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(runs))
	for _, rd := range runs {
		out[rd.Name] = rd.XML
	}
	return out
}

// requireEqualToPristine asserts the recovered repository serves
// exactly what a never-faulted twin ingesting the same batches
// serves: identical run sets, byte-identical exported XML, valid
// decodes, and a green ledger.
func requireEqualToPristine(t *testing.T, recovered *store.Store, batches ...[]store.RunData) {
	t.Helper()
	requireEqualToTwin(t, recovered, func(pristine *store.Store) {
		for _, b := range batches {
			if _, err := pristine.ImportRuns(specName, b, 2); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// requireEqualToTwin is requireEqualToPristine for a twin built by
// replaying ops on a fresh, never-faulted repository.
func requireEqualToTwin(t *testing.T, recovered *store.Store, ops func(pristine *store.Store)) {
	t.Helper()
	pristine := store.OpenBackend(store.NewMemoryBackend())
	if err := pristine.SaveSpec(specName, catalog(t)); err != nil {
		t.Fatal(err)
	}
	ops(pristine)
	want, err := pristine.ListRuns(specName)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recovered.ListRuns(specName)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered runs %v, pristine %v", got, want)
	}
	docsGot, docsWant := exported(t, recovered), exported(t, pristine)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered runs %v, pristine %v", got, want)
		}
		if !bytes.Equal(docsGot[want[i]], docsWant[want[i]]) {
			t.Fatalf("run %s differs between recovered and pristine repositories", want[i])
		}
		r, err := recovered.LoadRun(specName, want[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("recovered run %s invalid: %v", want[i], err)
		}
	}
	report, err := recovered.VerifyLedger(specName)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("recovered ledger verify red: %+v", report.Issues)
	}
}

// requireFailedCommit asserts an import failed with the injected fault
// and left none of its runs visible.
func requireFailedCommit(t *testing.T, st *store.Store, fb *faultfs.Backend, batch []store.RunData, stats store.ImportStats, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("import with a failed commit reported success")
	}
	if !faultfs.IsInjected(err) && !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("error %v does not unwrap to the injected fault", err)
	}
	if len(fb.Injected()) == 0 {
		t.Fatal("the scheduled fault never fired")
	}
	if len(stats.Imported) != 0 {
		t.Fatalf("failed commit reports %d imported runs", len(stats.Imported))
	}
	names, lerr := st.ListRuns(specName)
	if lerr != nil {
		t.Fatal(lerr)
	}
	for _, n := range names {
		for _, rd := range batch {
			if n == rd.Name {
				t.Fatalf("run %s of a failed commit is listed", n)
			}
		}
	}
}

// TestSegmentAppendENOSPC: the segment append hits a full disk
// mid-commit. The segment holds the only copy of each run, so the
// import fails and stores nothing; after reboot the client's retry
// converges on the never-faulted twin.
func TestSegmentAppendENOSPC(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() store.Backend) {
		sp := catalog(t)
		a := makeBatch(t, sp, 3, 1, "a")
		b := makeBatch(t, sp, 2, 2, "b")

		fb := faultfs.Wrap(open())
		st := store.OpenBackend(fb)
		if err := st.SaveSpec(specName, sp); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ImportRuns(specName, a, 2); err != nil {
			t.Fatal(err)
		}
		fb.Fail(faultfs.Rule{Op: faultfs.OpAppend, KeySuffix: "runs.seg", N: 1, Mode: faultfs.ENOSPC})
		stats, err := st.ImportRuns(specName, b, 2)
		requireFailedCommit(t, st, fb, b, stats, err)

		fb.Clear() // reboot; the client retries the batch
		recovered := store.OpenBackend(fb)
		if _, err := recovered.ImportRuns(specName, b, 2); err != nil {
			t.Fatal(err)
		}
		requireEqualToPristine(t, recovered, a, b)
	})
}

// TestLedgerTornAppend: power dies halfway through the ledger-line
// append — the torn-tail crash shape. The import fails; recovery must
// truncate the fragment, keep the chain verifiable, and keep
// attesting new batches.
func TestLedgerTornAppend(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() store.Backend) {
		sp := catalog(t)
		a := makeBatch(t, sp, 3, 3, "a")
		b := makeBatch(t, sp, 2, 4, "b")
		c := makeBatch(t, sp, 2, 5, "c")

		fb := faultfs.Wrap(open())
		st := store.OpenBackend(fb)
		if err := st.SaveSpec(specName, sp); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ImportRuns(specName, a, 2); err != nil {
			t.Fatal(err)
		}
		fb.Fail(faultfs.Rule{Op: faultfs.OpAppend, KeySuffix: "ledger.log", N: 1, Mode: faultfs.PartialThenErr})
		stats, err := st.ImportRuns(specName, b, 2)
		requireFailedCommit(t, st, fb, b, stats, err)

		fb.Clear() // reboot; the client retries the batch
		recovered := store.OpenBackend(fb)
		// The chain must keep extending over the repaired log.
		if _, err := recovered.ImportRuns(specName, b, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := recovered.ImportRuns(specName, c, 2); err != nil {
			t.Fatal(err)
		}
		requireEqualToPristine(t, recovered, a, b, c)
		for _, run := range []string{"b0", "c0", "c1"} {
			p, err := recovered.RunProof(specName, run)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.VerifyProof(p); err != nil {
				t.Fatalf("proof of %s after torn-tail recovery: %v", run, err)
			}
		}
	})
}

// TestLiveJournalAppendFails: a live-event batch whose journal append
// fails part-way leaves a torn prefix on disk. The store must drop its
// in-memory state for the run, so the next batch replays the journal
// (truncating the fragment) instead of appending after it, and a
// reopened store reads exactly the status the running one reports.
func TestLiveJournalAppendFails(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() store.Backend) {
		sp := catalog(t)
		run, err := gen.RandomRun(sp, gen.DefaultRunParams(), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		evs := wfrun.Events(run)
		if len(evs) < 12 {
			t.Fatalf("run has %d events, want at least 12", len(evs))
		}
		fb := faultfs.Wrap(open())
		st := store.OpenBackend(fb)
		if err := st.SaveSpec(specName, sp); err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendLiveEvents(specName, "x", evs[:8]); err != nil {
			t.Fatal(err)
		}
		fb.Fail(faultfs.Rule{Op: faultfs.OpAppend, KeySuffix: ".events", N: 1, Mode: faultfs.PartialThenErr})
		if _, err := st.AppendLiveEvents(specName, "x", evs[8:11]); !faultfs.IsInjected(err) {
			t.Fatalf("append over a failing journal: err = %v, want the injected fault", err)
		}
		fb.Clear()
		if _, err := st.AppendLiveEvents(specName, "x", evs[11:]); err != nil {
			t.Fatal(err)
		}
		live, ok, err := st.LiveStatusOf(specName, "x")
		if err != nil || !ok {
			t.Fatalf("in-process status: ok=%v err=%v", ok, err)
		}
		reopened, ok, err := store.OpenBackend(fb).LiveStatusOf(specName, "x")
		if err != nil || !ok {
			t.Fatalf("reopened status: ok=%v err=%v", ok, err)
		}
		if fmt.Sprint(reopened) != fmt.Sprint(live) {
			t.Fatalf("reopened status %+v, in-process %+v", reopened, live)
		}
		if live.Events < 8+len(evs[11:]) || live.Events >= len(evs) {
			t.Fatalf("status reports %d events: want the first batch, the durable part of the failed one and the last", live.Events)
		}
	})
}

// TestRunWriteFailsMidBatch: the batch's last write — the ledger
// append, after the segment append — fails. The batch errors and none
// of it is visible; the client's retry after reboot converges on the
// pristine state.
func TestRunWriteFailsMidBatch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() store.Backend) {
		sp := catalog(t)
		a := makeBatch(t, sp, 3, 6, "a")
		b := makeBatch(t, sp, 3, 7, "b")

		fb := faultfs.Wrap(open())
		st := store.OpenBackend(fb)
		if err := st.SaveSpec(specName, sp); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ImportRuns(specName, a, 2); err != nil {
			t.Fatal(err)
		}
		fb.Fail(faultfs.Rule{Op: faultfs.OpAppend, KeySuffix: "ledger.log", N: 1, Mode: faultfs.ErrIO})
		stats, err := st.ImportRuns(specName, b, 1)
		requireFailedCommit(t, st, fb, b, stats, err)

		fb.Clear() // reboot; the client retries the whole batch
		recovered := store.OpenBackend(fb)
		if _, err := recovered.ImportRuns(specName, b, 2); err != nil {
			t.Fatal(err)
		}
		requireEqualToPristine(t, recovered, a, b)
	})
}

// TestDroppedSyncStillConsistent: a storage stack that lies about
// fsync must not corrupt anything the process itself can observe —
// recovery from the surviving bytes equals the pristine twin.
func TestDroppedSyncStillConsistent(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() store.Backend) {
		sp := catalog(t)
		a := makeBatch(t, sp, 3, 8, "a")

		fb := faultfs.Wrap(open())
		fb.Fail(faultfs.Rule{Op: faultfs.OpAppend, KeySuffix: "", N: 0, Mode: faultfs.DropSync})
		st := store.OpenBackend(fb)
		if err := st.SaveSpec(specName, sp); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ImportRuns(specName, a, 2); err != nil {
			t.Fatal(err)
		}
		fb.Clear()
		requireEqualToPristine(t, store.OpenBackend(fb), a)
	})
}

// TestDecoratorScheduling covers the rule mechanics themselves.
func TestDecoratorScheduling(t *testing.T) {
	fb := faultfs.Wrap(store.NewMemoryBackend())
	if err := fb.WriteFile("s/a.txt", []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Nth-op: only the 2nd matching append fails.
	fb.Fail(faultfs.Rule{Op: faultfs.OpAppend, KeySuffix: ".log", N: 2, Mode: faultfs.ENOSPC})
	if err := fb.Append("s/x.log", []byte("one\n"), false); err != nil {
		t.Fatalf("1st append failed early: %v", err)
	}
	err := fb.Append("s/x.log", []byte("two\n"), false)
	if err == nil {
		t.Fatal("2nd append did not fail")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ENOSPC rule raised %v", err)
	}
	// Spent: the 3rd append succeeds again.
	if err := fb.Append("s/x.log", []byte("three\n"), false); err != nil {
		t.Fatalf("spent rule still firing: %v", err)
	}
	got, err := fb.ReadFile("s/x.log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "one\nthree\n" {
		t.Fatalf("log content %q, want the failed append absent", got)
	}
	// PartialThenErr commits a strict prefix.
	fb.Fail(faultfs.Rule{Op: faultfs.OpAppend, KeySuffix: "y.log", N: 1, Mode: faultfs.PartialThenErr})
	err = fb.Append("s/y.log", []byte("abcdef"), true)
	if !faultfs.IsInjected(err) {
		t.Fatalf("partial append error = %v, want injected", err)
	}
	got, err = fb.ReadFile("s/y.log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("partial append committed %q, want the half prefix", got)
	}
	if n := len(fb.Injected()); n != 2 {
		t.Fatalf("injected log has %d entries, want 2: %v", n, fb.Injected())
	}
	// Clear drops pending rules.
	fb.Fail(faultfs.Rule{Op: faultfs.OpRead, Mode: faultfs.ErrIO})
	fb.Clear()
	if _, err := fb.ReadFile("s/a.txt"); err != nil {
		t.Fatalf("cleared rule still firing: %v", err)
	}
}

// A rule-free decorator must be indistinguishable from its inner
// backend — it passes the full conformance contract.
func TestWrappedBackendConformance(t *testing.T) {
	fb := faultfs.Wrap(store.NewMemoryBackend())
	conformance.RunConformance(t, func() store.Backend { return fb })
}
