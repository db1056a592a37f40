package store

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestFSBackendSyncsNewDirectoryEntries records the directories the fs
// backend fsyncs: a spec's first synced append and first WriteFile must
// make every entry they create durable — each new directory in its
// parent and a new file in its directory — while later writes to the
// same keys sync no more than before.
func TestFSBackendSyncsNewDirectoryEntries(t *testing.T) {
	root := t.TempDir()
	be, err := NewFSBackend(root)
	if err != nil {
		t.Fatal(err)
	}
	var synced []string
	orig := syncDir
	syncDir = func(dir string) error {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		synced = append(synced, filepath.ToSlash(rel))
		return orig(dir)
	}
	defer func() { syncDir = orig }()

	step := func(name string, op func() error, want ...string) {
		t.Helper()
		synced = nil
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(synced, want) {
			t.Fatalf("%s synced %q, want %q", name, synced, want)
		}
	}
	seg := "pa/snapshot/runs.seg"
	step("first synced append", func() error { return be.Append(seg, []byte("a"), true) },
		".", "pa", "pa/snapshot")
	step("second synced append", func() error { return be.Append(seg, []byte("b"), true) })
	step("new file, synced", func() error { return be.Append("pa/snapshot/ledger.log", []byte("c"), true) },
		"pa/snapshot")
	step("new file, unsynced", func() error { return be.Append("pa/live/r.events", []byte("d"), false) },
		"pa")
	step("first write", func() error { return be.WriteFile("sb/snapshot/manifest.json", []byte("{}")) },
		".", "sb", "sb/snapshot")
	step("rewrite", func() error { return be.WriteFile("sb/snapshot/manifest.json", []byte("{}")) },
		"sb/snapshot")
}
