package faultfs_test

// Crash and replay scenarios for the checkpointed run index: a commit
// is a synced segment append plus a synced ledger append, and
// manifest.json is a checkpoint that a reopened store brings up to the
// ledger tail by replay. Each scenario reopens a fresh store over the
// surviving bytes and requires it to serve exactly what a never-faulted
// twin serves, with a green ledger — or to refuse loudly.

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/store/faultfs"
)

const checkpointKey = specName + "/snapshot/manifest.json"

// checkpointRuns returns the run names the on-disk checkpoint lists.
func checkpointRuns(t *testing.T, be store.Backend) map[string]bool {
	t.Helper()
	raw, err := be.ReadFile(checkpointKey)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Runs map[string]json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for name := range m.Runs {
		out[name] = true
	}
	return out
}

// seeded opens a store over fb with the spec saved and batch a
// committed.
func seeded(t *testing.T, fb *faultfs.Backend, a []store.RunData) *store.Store {
	t.Helper()
	st := store.OpenBackend(fb)
	if err := st.SaveSpec(specName, catalog(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ImportRuns(specName, a, 2); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLedgerAppendFailsBytesDead (crash case a): the segment append
// lands and the ledger append fails. The run is absent, before and
// after a reboot, and the bytes its frames took count as dead.
func TestLedgerAppendFailsBytesDead(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() store.Backend) {
		sp := catalog(t)
		a := makeBatch(t, sp, 3, 11, "a")
		b := makeBatch(t, sp, 2, 12, "b")

		fb := faultfs.Wrap(open())
		st := seeded(t, fb, a)
		before, err := st.Snapshot(specName)
		if err != nil {
			t.Fatal(err)
		}
		fb.Fail(faultfs.Rule{Op: faultfs.OpAppend, KeySuffix: "ledger.log", N: 1, Mode: faultfs.ErrIO})
		stats, err := st.ImportRuns(specName, b, 2)
		requireFailedCommit(t, st, fb, b, stats, err)

		fb.Clear()
		recovered := store.OpenBackend(fb)
		requireEqualToPristine(t, recovered, a)
		after, err := recovered.Snapshot(specName)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := fb.Stat(specName + "/snapshot/runs.seg")
		if err != nil {
			t.Fatal(err)
		}
		if after.LiveBytes != before.LiveBytes || after.DeadBytes <= before.DeadBytes ||
			after.LiveBytes+after.DeadBytes != seg.Size {
			t.Fatalf("after the failed commit: %+v (was %+v) over a %d-byte segment; want its frames dead", after, before, seg.Size)
		}
	})
}

// TestCommittedBeforeAckSurvives (crash case b): the ledger record is
// durable but the process stops before the client hears back. The
// checkpoint on disk does not list the batch; the reopened store does,
// from the ledger.
func TestCommittedBeforeAckSurvives(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() store.Backend) {
		sp := catalog(t)
		a := makeBatch(t, sp, 3, 13, "a")
		b := makeBatch(t, sp, 2, 14, "b")
		c := makeBatch(t, sp, 2, 15, "c")

		fb := faultfs.Wrap(open())
		st := seeded(t, fb, a)
		for _, batch := range [][]store.RunData{b, c} {
			if _, err := st.ImportRuns(specName, batch, 2); err != nil {
				t.Fatal(err)
			}
		}
		// The process dies here: no Snapshot, no Close.
		if cp := checkpointRuns(t, fb); cp["b0"] || cp["c0"] {
			t.Fatalf("checkpoint %v already lists the unacked batches; the scenario tests nothing", cp)
		}
		recovered := store.OpenBackend(fb)
		requireEqualToPristine(t, recovered, a, b, c)
		for _, run := range []string{"a0", "b1", "c0"} {
			p, err := recovered.RunProof(specName, run)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.VerifyProof(p); err != nil {
				t.Fatalf("proof of replayed run %s: %v", run, err)
			}
		}
	})
}

// TestCompactionCrashBeforeCheckpoint (crash case c): compaction
// rewrites the segment and dies before its checkpoint, while batches
// after the old checkpoint are in the ledger — one of them the middle
// of three versions of a1, whose frame the rewrite dropped. Replay
// must find every run's frame at its new offset.
func TestCompactionCrashBeforeCheckpoint(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() store.Backend) {
		sp := catalog(t)
		a := makeBatch(t, sp, 3, 16, "a")
		b := makeBatch(t, sp, 2, 17, "b")
		a1v2 := makeBatch(t, sp, 2, 18, "a")[1:]
		a1v3 := makeBatch(t, sp, 2, 19, "a")[1:]
		ops := func(st *store.Store) {
			if err := st.DeleteRun(specName, "a0"); err != nil { // checkpoint
				t.Fatal(err)
			}
			for _, batch := range [][]store.RunData{b, a1v2, a1v3} {
				if _, err := st.ImportRuns(specName, batch, 2); err != nil {
					t.Fatal(err)
				}
			}
		}

		fb := faultfs.Wrap(open())
		st := seeded(t, fb, a)
		ops(st)
		fb.Fail(faultfs.Rule{Op: faultfs.OpWrite, KeySuffix: "manifest.json", N: 1, Mode: faultfs.ErrIO})
		if err := st.Compact(specName); !faultfs.IsInjected(err) {
			t.Fatalf("compaction with a failed checkpoint = %v, want the injected fault", err)
		}

		fb.Clear()
		if cp := checkpointRuns(t, fb); !cp["a1"] || cp["b0"] {
			t.Fatalf("checkpoint %v is not the pre-compaction one", cp)
		}
		recovered := store.OpenBackend(fb)
		requireEqualToTwin(t, recovered, func(pristine *store.Store) {
			if _, err := pristine.ImportRuns(specName, a, 2); err != nil {
				t.Fatal(err)
			}
			ops(pristine)
		})
	})
}

// TestDeleteThenCrashStaysDeleted (crash case d): a delete is not in
// the ledger, so it checkpoints; a crash right after it must not let
// replay resurrect the run, even though its batch is after the
// previous checkpoint. A delete whose checkpoint fails is no delete.
func TestDeleteThenCrashStaysDeleted(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() store.Backend) {
		sp := catalog(t)
		a := makeBatch(t, sp, 2, 20, "a")
		b := makeBatch(t, sp, 3, 21, "b")

		fb := faultfs.Wrap(open())
		st := seeded(t, fb, a)
		if _, err := st.ImportRuns(specName, b, 2); err != nil {
			t.Fatal(err)
		}
		if err := st.DeleteRun(specName, "b0"); err != nil {
			t.Fatal(err)
		}
		fb.Fail(faultfs.Rule{Op: faultfs.OpWrite, KeySuffix: "manifest.json", N: 1, Mode: faultfs.ErrIO})
		if err := st.DeleteRun(specName, "b1"); !faultfs.IsInjected(err) {
			t.Fatalf("delete with a failed checkpoint = %v, want the injected fault", err)
		}
		if _, err := st.LoadRun(specName, "b1"); err != nil {
			t.Fatalf("run of a failed delete: %v", err)
		}

		fb.Clear()
		recovered := store.OpenBackend(fb)
		requireEqualToTwin(t, recovered, func(pristine *store.Store) {
			for _, batch := range [][]store.RunData{a, b} {
				if _, err := pristine.ImportRuns(specName, batch, 2); err != nil {
					t.Fatal(err)
				}
			}
			if err := pristine.DeleteRun(specName, "b0"); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestRemovedCheckpointRefuses (crash case e): with two or more
// batches in the ledger a missing checkpoint is damage — deletes are
// not in the ledger, so a replay from the start could resurrect runs.
// The spec refuses to open, naming itself, and verify is red.
func TestRemovedCheckpointRefuses(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() store.Backend) {
		sp := catalog(t)
		fb := faultfs.Wrap(open())
		st := seeded(t, fb, makeBatch(t, sp, 2, 22, "a"))
		if _, err := st.ImportRuns(specName, makeBatch(t, sp, 2, 23, "b"), 2); err != nil {
			t.Fatal(err)
		}
		if err := fb.Remove(checkpointKey); err != nil {
			t.Fatal(err)
		}
		reopened := store.OpenBackend(fb)
		if names, err := reopened.ListRuns(specName); err == nil || !strings.Contains(err.Error(), `"`+specName+`"`) {
			t.Fatalf("ListRuns without a checkpoint = %v, %v; want an error naming the spec", names, err)
		}
		report, err := reopened.VerifyLedger(specName)
		if err != nil {
			t.Fatal(err)
		}
		if report.OK() {
			t.Fatal("VerifyLedger is green without a checkpoint")
		}
	})
}

// TestLedgerLoadErrorsRefuseCommit: a ledger that cannot be read, or
// whose torn tail cannot be truncated, fails the import naming the
// spec — appending anyway would fork the chain (seq 1 onto a non-empty
// log) or weld the record onto the fragment. After the reboot the
// ledger verifies and the retried import converges on the twin.
func TestLedgerLoadErrorsRefuseCommit(t *testing.T) {
	for _, fault := range []struct {
		name string
		rule faultfs.Rule
	}{
		{"read", faultfs.Rule{Op: faultfs.OpRead, KeySuffix: "ledger.log", N: 1, Mode: faultfs.ErrIO}},
		{"truncate", faultfs.Rule{Op: faultfs.OpWrite, KeySuffix: "ledger.log", N: 1, Mode: faultfs.ErrIO}},
	} {
		t.Run(fault.name, func(t *testing.T) {
			forEachBackend(t, func(t *testing.T, open func() store.Backend) {
				sp := catalog(t)
				a := makeBatch(t, sp, 2, 24, "a")
				b := makeBatch(t, sp, 2, 25, "b")

				fb := faultfs.Wrap(open())
				seeded(t, fb, a)
				// A torn tail from a crashed append, for the truncation
				// to repair.
				if err := fb.Append(specName+"/snapshot/ledger.log", []byte(`{"seq":2,"prev":`), false); err != nil {
					t.Fatal(err)
				}
				fb.Fail(fault.rule)
				reopened := store.OpenBackend(fb)
				stats, err := reopened.ImportRuns(specName, b, 2)
				requireFailedCommit(t, reopened, fb, b, stats, err)
				if !strings.Contains(err.Error(), `"`+specName+`"`) {
					t.Fatalf("ledger load error %q does not name the spec", err)
				}

				fb.Clear()
				recovered := store.OpenBackend(fb)
				report, err := recovered.VerifyLedger(specName)
				if err != nil {
					t.Fatal(err)
				}
				if !report.OK() {
					t.Fatalf("ledger verify red after the failed load: %+v", report.Issues)
				}
				if _, err := recovered.ImportRuns(specName, b, 2); err != nil {
					t.Fatal(err)
				}
				requireEqualToPristine(t, recovered, a, b)
			})
		})
	}
}

// TestLedgerTornAppendRetryInProcess: the ledger append tears and the
// client retries on the same store, with no reboot in between. The
// store must reload its index from disk first — truncating the torn
// fragment rather than welding the retry's record onto it.
func TestLedgerTornAppendRetryInProcess(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() store.Backend) {
		sp := catalog(t)
		a := makeBatch(t, sp, 2, 26, "a")
		b := makeBatch(t, sp, 2, 27, "b")

		fb := faultfs.Wrap(open())
		st := seeded(t, fb, a)
		fb.Fail(faultfs.Rule{Op: faultfs.OpAppend, KeySuffix: "ledger.log", N: 1, Mode: faultfs.PartialThenErr})
		stats, err := st.ImportRuns(specName, b, 2)
		requireFailedCommit(t, st, fb, b, stats, err)
		fb.Clear()
		if _, err := st.ImportRuns(specName, b, 2); err != nil {
			t.Fatal(err)
		}
		requireEqualToPristine(t, st, a, b)
		requireEqualToPristine(t, store.OpenBackend(fb), a, b)
	})
}
