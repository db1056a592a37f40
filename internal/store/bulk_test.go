package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/wfxml"
)

// genRunXML renders n fresh runs of the stored "pa" spec as RunData.
func genRunXML(t testing.TB, s *Store, n int, seed int64, prefix string) []RunData {
	t.Helper()
	sp, err := s.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]RunData, n)
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
		out[i] = RunData{Name: name, XML: buf.Bytes()}
	}
	return out
}

func TestImportRunsBulk(t *testing.T) {
	dir := seedDir(t, 2)
	s := reopen(t, dir)
	batch := genRunXML(t, s, 5, 7, "bulk")

	v0 := s.RunsVersion("pa")
	stats, err := s.ImportRuns("pa", batch, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Imported) != 5 || stats.Nodes == 0 || stats.Edges == 0 {
		t.Fatalf("ImportRuns stats = %+v", stats)
	}
	if v := s.RunsVersion("pa"); v != v0+1 {
		t.Fatalf("bulk import of 5 runs moved the run-set version %d → %d, want one step", v0, v)
	}

	// All runs listed, loadable, snapshotted and cached.
	runs, err := s.ListRuns("pa")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 7 {
		t.Fatalf("ListRuns = %v, want 7 entries", runs)
	}
	for _, rd := range batch {
		assertInManifest(t, s, rd.Name)
		a, err := s.LoadRun("pa", rd.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("imported run %s invalid: %v", rd.Name, err)
		}
	}
	// A restarted store preloads the whole cohort from its frames.
	pre, err := reopen(t, dir).Preload("pa")
	if err != nil {
		t.Fatal(err)
	}
	if pre.Runs != 7 {
		t.Fatalf("post-import Preload = %+v, want 7 runs", pre)
	}
}

func TestImportRunsRejectsBadBatch(t *testing.T) {
	dir := seedDir(t, 1)
	s := reopen(t, dir)
	good := genRunXML(t, s, 2, 3, "ok")

	// A malformed document rejects the whole batch before any write.
	batch := append(append([]RunData(nil), good...), RunData{Name: "broken", XML: []byte("<run>not closed")})
	if _, err := s.ImportRuns("pa", batch, 2); err == nil {
		t.Fatal("bulk import with a malformed document succeeded")
	}
	runs, _ := s.ListRuns("pa")
	if len(runs) != 1 {
		t.Fatalf("failed bulk import left runs behind: %v", runs)
	}

	// Invalid and duplicate names likewise.
	if _, err := s.ImportRuns("pa", []RunData{{Name: "../evil", XML: good[0].XML}}, 1); err == nil {
		t.Fatal("traversal name accepted")
	}
	if _, err := s.ImportRuns("pa", []RunData{
		{Name: "dup", XML: good[0].XML},
		{Name: "dup", XML: good[1].XML},
	}, 1); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestImportDirAndExportRoundTrip(t *testing.T) {
	dir := seedDir(t, 3)
	s := reopen(t, dir)

	// Export the whole spec as a tar...
	var tarBuf bytes.Buffer
	if err := s.ExportSpec("pa", nil, &tarBuf); err != nil {
		t.Fatal(err)
	}
	runs, err := ReadRunTar(bytes.NewReader(tarBuf.Bytes()), 1<<20, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("tar round trip found %d runs, want 3", len(runs))
	}

	// ...then import the archive's runs under fresh names via a dir.
	stage := t.TempDir()
	for _, rd := range runs {
		if err := os.WriteFile(filepath.Join(stage, "copy-"+rd.Name+".xml"), rd.XML, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := s.ImportDir("pa", stage, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Imported) != 3 {
		t.Fatalf("ImportDir imported %v", stats.Imported)
	}
	all, err := s.ListRuns("pa")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Fatalf("runs after import-dir = %v", all)
	}
	// The copies must equal the originals.
	for _, rd := range runs {
		orig, err := s.LoadRun("pa", rd.Name)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := s.LoadRun("pa", "copy-"+rd.Name)
		if err != nil {
			t.Fatal(err)
		}
		if orig.Tree.LabelSignature() != cp.Tree.LabelSignature() {
			t.Errorf("copy of %s differs from original", rd.Name)
		}
	}
}

func TestReadRunTarRejectsOversize(t *testing.T) {
	dir := seedDir(t, 2)
	s := reopen(t, dir)
	var tarBuf bytes.Buffer
	if err := s.ExportSpec("pa", nil, &tarBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRunTar(bytes.NewReader(tarBuf.Bytes()), 16, 1<<24); err == nil {
		t.Fatal("per-run size limit not enforced")
	}
	if _, err := ReadRunTar(bytes.NewReader(tarBuf.Bytes()), 1<<20, 16); err == nil {
		t.Fatal("total size limit not enforced")
	}
}
