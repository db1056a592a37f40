package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/wfxml"
)

func TestValidateK(t *testing.T) {
	for _, ok := range []int{1, 2, 99} {
		if err := ValidateK("k", ok); err != nil {
			t.Fatalf("k=%d: %v", ok, err)
		}
	}
	for _, bad := range []int{0, -1, -99} {
		err := ValidateK("k", bad)
		if err == nil {
			t.Fatalf("k=%d should fail", bad)
		}
		if !strings.Contains(err.Error(), "-k") || !strings.Contains(err.Error(), "at least 1") {
			t.Fatalf("k=%d error should name the flag and the floor: %v", bad, err)
		}
	}
	if err := ValidateK("neighbors", 0); err == nil || !strings.Contains(err.Error(), "-neighbors") {
		t.Fatalf("flag name not threaded through: %v", err)
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sp := fixtures.Fig2SpecWithLoop()
	r := fixtures.Fig2R3(sp)

	specPath := filepath.Join(dir, "spec.xml")
	runPath := filepath.Join(dir, "run.xml")
	if err := SaveSpec(specPath, sp, "fig2"); err != nil {
		t.Fatal(err)
	}
	if err := SaveRun(runPath, r, "r3"); err != nil {
		t.Fatal(err)
	}

	sp2, err := LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Stats() != sp.Stats() {
		t.Fatal("spec stats changed")
	}
	r2, err := LoadRun(runPath, sp2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.NumEdges() != r.NumEdges() {
		t.Fatal("run size changed")
	}
	if err := wfxml.ValidateRunTree(r2); err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadSpec("/nonexistent/spec.xml"); err == nil {
		t.Fatal("missing spec file should fail")
	}
	sp := fixtures.Fig2Spec()
	if _, err := LoadRun("/nonexistent/run.xml", sp); err == nil {
		t.Fatal("missing run file should fail")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.xml")
	if err := os.WriteFile(bad, []byte("<garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(bad); err == nil {
		t.Fatal("garbage spec should fail")
	}
	if _, err := LoadRun(bad, sp); err == nil {
		t.Fatal("garbage run should fail")
	}
}
