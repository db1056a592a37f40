package main

// First tests for the provstore CLI, running the real run() entry
// point in-process with captured output — the commands a user types,
// checked end to end against a real repository directory.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/wfxml"
)

// runCLI invokes the CLI entry point with captured stdout/stderr.
func runCLI(t *testing.T, args ...string) (code int, out, errOut string) {
	t.Helper()
	var ob, eb bytes.Buffer
	stdout, stderr = &ob, &eb
	defer func() { stdout, stderr = os.Stdout, os.Stderr }()
	return run(args), ob.String(), eb.String()
}

// writeFixtures renders the PA catalog spec and n runs as XML files
// and returns their paths.
func writeFixtures(t *testing.T, dir string, n int) (specPath string, runPaths []string) {
	t.Helper()
	sp, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wfxml.EncodeSpec(&buf, sp, "pa"); err != nil {
		t.Fatal(err)
	}
	specPath = filepath.Join(dir, "spec.xml")
	if err := os.WriteFile(specPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		name := fmt.Sprintf("r%d", i)
		if err := wfxml.EncodeRun(&buf, r, name); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name+".xml")
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		runPaths = append(runPaths, p)
	}
	return specPath, runPaths
}

func TestImportDiffVerifyHappyPath(t *testing.T) {
	for _, backend := range []string{"fs", "object"} {
		t.Run(backend, func(t *testing.T) {
			repo := t.TempDir()
			specPath, runs := writeFixtures(t, t.TempDir(), 2)
			base := []string{"-dir", repo, "-backend", backend}

			code, out, errOut := runCLI(t, append(base, "import-spec", "pa", specPath)...)
			if code != 0 || !strings.Contains(out, "stored pa:") {
				t.Fatalf("import-spec: code %d out %q err %q", code, out, errOut)
			}
			for i, rp := range runs {
				code, out, errOut = runCLI(t, append(base, "import-run", "pa", fmt.Sprintf("r%d", i), rp)...)
				if code != 0 || !strings.Contains(out, "stored pa/r") {
					t.Fatalf("import-run: code %d out %q err %q", code, out, errOut)
				}
			}

			code, out, _ = runCLI(t, append(base, "ls")...)
			if code != 0 || !strings.Contains(out, "pa\t2 runs") {
				t.Fatalf("ls: code %d out %q", code, out)
			}

			code, out, errOut = runCLI(t, append(base, "diff", "pa", "r0", "r1")...)
			if code != 0 || !strings.Contains(out, "distance") {
				t.Fatalf("diff: code %d out %q err %q", code, out, errOut)
			}

			// A second process over the same directory sees everything
			// and the ledger verifies green.
			code, out, errOut = runCLI(t, append(base, "verify")...)
			if code != 0 || !strings.Contains(out, "ledger OK") {
				t.Fatalf("verify: code %d out %q err %q", code, out, errOut)
			}
		})
	}
}

func TestShardedRepositoryRoundTrip(t *testing.T) {
	repo := t.TempDir()
	specPath, runs := writeFixtures(t, t.TempDir(), 2)
	base := []string{"-dir", repo, "-shards", "2"}

	if code, _, errOut := runCLI(t, append(base, "import-spec", "pa", specPath)...); code != 0 {
		t.Fatalf("import-spec: code %d err %q", code, errOut)
	}
	for i, rp := range runs {
		if code, _, errOut := runCLI(t, append(base, "import-run", "pa", fmt.Sprintf("r%d", i), rp)...); code != 0 {
			t.Fatalf("import-run: code %d err %q", code, errOut)
		}
	}
	// The spec landed wholly on one shard subdirectory.
	if _, err := os.Stat(filepath.Join(repo, "shard-0", "pa")); err != nil {
		if _, err2 := os.Stat(filepath.Join(repo, "shard-1", "pa")); err2 != nil {
			t.Fatalf("spec on neither shard: %v / %v", err, err2)
		}
	}
	code, out, errOut := runCLI(t, append(base, "verify")...)
	if code != 0 || !strings.Contains(out, "ledger OK") {
		t.Fatalf("sharded verify: code %d out %q err %q", code, out, errOut)
	}
	// Reopening with a different shard count still finds the spec:
	// discovery pins it to the shard that holds it.
	code, out, _ = runCLI(t, "-dir", repo, "-shards", "3", "diff", "pa", "r0", "r1")
	if code != 0 || !strings.Contains(out, "distance") {
		t.Fatalf("diff after reshard: code %d out %q", code, out)
	}
}

// TestVerifyNamesMalformedLedgerLine: verify on a ledger whose middle
// line is not JSON exits non-zero and names that line's batch.
func TestVerifyNamesMalformedLedgerLine(t *testing.T) {
	repo := t.TempDir()
	specPath, runs := writeFixtures(t, t.TempDir(), 3)
	if code, _, errOut := runCLI(t, "-dir", repo, "import-spec", "pa", specPath); code != 0 {
		t.Fatalf("import-spec: code %d err %q", code, errOut)
	}
	for i, rp := range runs {
		if code, _, errOut := runCLI(t, "-dir", repo, "import-run", "pa", fmt.Sprintf("r%d", i), rp); code != 0 {
			t.Fatalf("import-run: code %d err %q", code, errOut)
		}
	}
	path := filepath.Join(repo, "pa", "snapshot", "ledger.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("expected 3 ledger records, got %q", data)
	}
	lines[1] = []byte("{\"seq\":2,\n")
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCLI(t, "-dir", repo, "verify")
	if code == 0 || !strings.Contains(errOut, "first divergent batch: spec pa batch 2") {
		t.Fatalf("verify: code %d err %q", code, errOut)
	}
}

func TestCLIErrorPaths(t *testing.T) {
	repo := t.TempDir()
	specPath, runs := writeFixtures(t, t.TempDir(), 1)
	if code, _, _ := runCLI(t, "-dir", repo, "import-spec", "pa", specPath); code != 0 {
		t.Fatal("seed import failed")
	}
	if code, _, _ := runCLI(t, "-dir", repo, "import-run", "pa", "r0", runs[0]); code != 0 {
		t.Fatal("seed run failed")
	}

	tests := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"no subcommand", []string{"-dir", repo}, 2, "usage:"},
		{"unknown subcommand", []string{"-dir", repo, "frobnicate"}, 2, "usage:"},
		{"unknown backend", []string{"-dir", repo, "-backend", "s3", "ls"}, 1, "unknown backend kind"},
		{"traversal spec name", []string{"-dir", repo, "import-spec", "../evil", specPath}, 1, "name"},
		{"separator run name", []string{"-dir", repo, "import-run", "pa", "a/b", runs[0]}, 1, "name"},
		{"missing spec file", []string{"-dir", repo, "import-spec", "pb", filepath.Join(repo, "nope.xml")}, 1, "no such file"},
		{"diff unknown run", []string{"-dir", repo, "diff", "pa", "r0", "zz"}, 1, "zz"},
		{"cluster bad k", []string{"-dir", repo, "cluster", "pa", "-k", "0"}, 1, "-k must be at least 1"},
		{"outliers bad k", []string{"-dir", repo, "outliers", "pa", "-k", "-3"}, 1, "-k must be at least 1"},
		{"diff bad cost", []string{"-dir", repo, "diff", "pa", "r0", "r0", "-cost", "bogus"}, 1, "cost"},
		{"matrix one run", []string{"-dir", repo, "matrix", "pa"}, 1, "at least two stored runs"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCLI(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("code = %d, want %d (out %q err %q)", code, tc.wantCode, out, errOut)
			}
			if !strings.Contains(errOut, tc.wantErr) {
				t.Fatalf("stderr %q does not mention %q", errOut, tc.wantErr)
			}
		})
	}
}

// TestAnalyticsSubcommands drives the cohort analytics verbs — matrix,
// cluster, outliers, nearest — over one repository, through both the
// dense-matrix and metric-index paths, after a bulk import-dir.
func TestAnalyticsSubcommands(t *testing.T) {
	repo := t.TempDir()
	fixdir := t.TempDir()
	specPath, _ := writeFixtures(t, fixdir, 4)
	if code, _, errOut := runCLI(t, "-dir", repo, "import-spec", "pa", specPath); code != 0 {
		t.Fatalf("import-spec: %q", errOut)
	}
	// import-dir picks up every run XML in the directory (skipping
	// spec.xml) in sorted order.
	code, out, errOut := runCLI(t, "-dir", repo, "import-dir", "pa", fixdir)
	if code != 0 || !strings.Contains(out, "imported 4 runs into pa") {
		t.Fatalf("import-dir: code %d out %q err %q", code, out, errOut)
	}

	code, out, errOut = runCLI(t, "-dir", repo, "matrix", "pa")
	if code != 0 || !strings.Contains(out, "medoid:") || !strings.Contains(out, "clustering:") {
		t.Fatalf("matrix: code %d out %q err %q", code, out, errOut)
	}

	for _, path := range []string{"-exact", "-indexed"} {
		code, out, errOut = runCLI(t, "-dir", repo, "cluster", "pa", "-k", "2", "-seed", "3", path)
		if code != 0 || !strings.Contains(out, "medoid") {
			t.Fatalf("cluster %s: code %d out %q err %q", path, code, out, errOut)
		}
		code, out, errOut = runCLI(t, "-dir", repo, "outliers", "pa", "-k", "2", path)
		if code != 0 || !strings.Contains(out, "knn-score") {
			t.Fatalf("outliers %s: code %d out %q err %q", path, code, out, errOut)
		}
		code, out, errOut = runCLI(t, "-dir", repo, "nearest", "pa", "r0", "-k", "2", path)
		if code != 0 || !strings.Contains(out, "nearest neighbors of pa/r0") {
			t.Fatalf("nearest %s: code %d out %q err %q", path, code, out, errOut)
		}
	}
	// -indexed and -exact together is a usage error.
	if code, _, errOut := runCLI(t, "-dir", repo, "cluster", "pa", "-indexed", "-exact"); code != 1 ||
		!strings.Contains(errOut, "mutually exclusive") {
		t.Fatalf("indexed+exact: code %d err %q", code, errOut)
	}
	// nearest for a run that does not exist names the run.
	if code, _, errOut := runCLI(t, "-dir", repo, "nearest", "pa", "zz"); code != 1 ||
		!strings.Contains(errOut, "zz") {
		t.Fatalf("nearest unknown: code %d err %q", code, errOut)
	}
}

// TestSpecEvolutionSubcommands stores a second version of a spec and
// prints the evolution mapping, with the SVG overlay on the side.
func TestSpecEvolutionSubcommands(t *testing.T) {
	repo := t.TempDir()
	specPath, _ := writeFixtures(t, t.TempDir(), 0)
	if code, _, errOut := runCLI(t, "-dir", repo, "import-spec", "pa", specPath); code != 0 {
		t.Fatalf("import-spec: %q", errOut)
	}
	code, out, errOut := runCLI(t, "-dir", repo, "put-version", "pa", "pa2", specPath)
	if code != 0 || !strings.Contains(out, "stored pa2 as version of pa") {
		t.Fatalf("put-version: code %d out %q err %q", code, out, errOut)
	}
	svgPath := filepath.Join(t.TempDir(), "evolve.svg")
	code, out, errOut = runCLI(t, "-dir", repo, "evolve", "pa", "pa2", "-svg", svgPath)
	if code != 0 || !strings.Contains(out, "lineage-linked") || !strings.Contains(out, "mapping cost: 0") {
		t.Fatalf("evolve: code %d out %q err %q", code, out, errOut)
	}
	if fi, err := os.Stat(svgPath); err != nil || fi.Size() == 0 {
		t.Fatalf("evolve wrote no SVG: %v", err)
	}
	// Mapping against a spec that is not stored fails cleanly.
	if code, _, errOut := runCLI(t, "-dir", repo, "evolve", "pa", "nope"); code != 1 || errOut == "" {
		t.Fatalf("evolve missing spec: code %d err %q", code, errOut)
	}
}

// TestExportSnapshotPipeline drives the maintenance verbs over one
// repository: snapshot materializes the binary layer, export writes a
// tar, and gen-run adds a deterministic run.
func TestExportSnapshotPipeline(t *testing.T) {
	repo := t.TempDir()
	out := t.TempDir()
	specPath, runs := writeFixtures(t, t.TempDir(), 1)
	if code, _, _ := runCLI(t, "-dir", repo, "import-spec", "pa", specPath); code != 0 {
		t.Fatal("import-spec failed")
	}
	if code, _, _ := runCLI(t, "-dir", repo, "import-run", "pa", "r0", runs[0]); code != 0 {
		t.Fatal("import-run failed")
	}
	code, o, errOut := runCLI(t, "-dir", repo, "gen-run", "pa", "g0", "-seed", "7")
	if code != 0 || !strings.Contains(o, "generated pa/g0") {
		t.Fatalf("gen-run: code %d out %q err %q", code, o, errOut)
	}
	code, o, errOut = runCLI(t, "-dir", repo, "snapshot")
	if code != 0 || !strings.Contains(o, "pa: 2 runs snapshotted") {
		t.Fatalf("snapshot: code %d out %q err %q", code, o, errOut)
	}
	tarPath := filepath.Join(out, "pa.tar")
	code, o, errOut = runCLI(t, "-dir", repo, "export", "pa", tarPath)
	if code != 0 || !strings.Contains(o, "exported pa (2 runs)") {
		t.Fatalf("export: code %d out %q err %q", code, o, errOut)
	}
	if fi, err := os.Stat(tarPath); err != nil || fi.Size() == 0 {
		t.Fatalf("export wrote nothing: %v", err)
	}
}
