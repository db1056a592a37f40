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
	// provstore keeps a repository as a directory tree on the
	// filesystem; the subtest names that store.
	t.Run("fs", func(t *testing.T) {
		repo := t.TempDir()
		specPath, runs := writeFixtures(t, t.TempDir(), 2)
		base := []string{"-dir", repo}

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

// TestListOnDamagedIndex: the ledger records every commit and delete,
// so a corrupt checkpoint is rebuilt and ls lists the spec's runs. A
// ledger that cannot be read leaves nothing to rebuild from: ls fails
// — with and without a spec argument — naming the spec, instead of
// listing it with zero runs.
func TestListOnDamagedIndex(t *testing.T) {
	repo := t.TempDir()
	specPath, runs := writeFixtures(t, t.TempDir(), 1)
	if code, _, errOut := runCLI(t, "-dir", repo, "import-spec", "pa", specPath); code != 0 {
		t.Fatalf("import-spec: code %d err %q", code, errOut)
	}
	if code, _, errOut := runCLI(t, "-dir", repo, "import-run", "pa", "r0", runs[0]); code != 0 {
		t.Fatalf("import-run: code %d err %q", code, errOut)
	}
	snapshot := filepath.Join(repo, "pa", "snapshot")
	if err := os.WriteFile(filepath.Join(snapshot, "manifest.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	for args, want := range map[string]string{"ls": "pa\t1 runs\n", "ls pa": "r0\n"} {
		if code, out, errOut := runCLI(t, append([]string{"-dir", repo}, strings.Fields(args)...)...); code != 0 || out != want {
			t.Errorf("%s over a corrupt checkpoint: code %d out %q err %q", args, code, out, errOut)
		}
	}
	if err := os.WriteFile(filepath.Join(snapshot, "ledger.log"), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"ls"}, {"ls", "pa"}} {
		code, out, errOut := runCLI(t, append([]string{"-dir", repo}, args...)...)
		if code == 0 || !strings.Contains(errOut, `spec "pa": ledger: record at line 1 malformed`) {
			t.Errorf("%v: code %d out %q err %q", args, code, out, errOut)
		}
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
		// provstore always opens DIR on the filesystem: -backend and
		// -shards are not flags.
		{"unknown backend", []string{"-dir", repo, "-backend", "fs", "ls"}, 2, "flag provided but not defined: -backend"},
		{"shards flag", []string{"-dir", repo, "-shards", "2", "ls"}, 2, "flag provided but not defined: -shards"},
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

// Pinned stdout of the analytics verbs over the 4-run fixture cohort:
// the dense-matrix answers (full PAM with silhouette, knn scores with
// mean-all) and the metric-index answers (sampled k-medoids, knn
// scores alone, and the index tally line).
const (
	clusterDense = `k-medoids over 4 runs (k=2, total distance 6, silhouette 0.723):
  cluster 0  medoid r0
    * r0
  cluster 1  medoid r2
      r1
    * r2
      r3
`
	outliersDense = `run                   knn-score   mean-all
r0                       11.500     12.333
r1                        3.500      7.000
r3                        3.500      5.667
r2                        3.000      6.333
`
	nearestDense = `nearest neighbors of pa/r0:
  r3                   10
  r2                   13
`
	clusterIndexed = `sampled k-medoids over 4 runs (k=2, total distance 6):
  cluster 0  medoid r0
    * r0
  cluster 1  medoid r2
      r1
    * r2
      r3
index: 22 exact diffs, 8 pruned (26.7% of 30 candidate pairs), 4 landmarks
`
	outliersIndexed = `run                   knn-score
r0                       11.500
r1                        3.500
r3                        3.500
r2                        3.000
index: 24 exact diffs, 4 pruned (14.3% of 28 candidate pairs), 4 landmarks
`
	nearestIndexed = `nearest neighbors of pa/r0:
  r3                   10
  r2                   13
index: 18 exact diffs, 1 pruned (5.3% of 19 candidate pairs), 4 landmarks
`
)

// analyticsArgs are the cluster, outliers and nearest invocations the
// analytics tests compare, on a repository holding spec "pa" and run r0.
var analyticsArgs = [][]string{
	{"cluster", "pa", "-k", "2", "-seed", "3"},
	{"outliers", "pa", "-k", "2"},
	{"nearest", "pa", "r0", "-k", "2"},
}

// importCohort stores the PA spec and n generated runs in a fresh
// repository through import-dir and returns the repository directory.
func importCohort(t *testing.T, n int) string {
	t.Helper()
	repo := t.TempDir()
	fixdir := t.TempDir()
	specPath, _ := writeFixtures(t, fixdir, n)
	if code, _, errOut := runCLI(t, "-dir", repo, "import-spec", "pa", specPath); code != 0 {
		t.Fatalf("import-spec: %q", errOut)
	}
	// import-dir picks up every run XML in the directory (skipping
	// spec.xml) in sorted order.
	code, out, errOut := runCLI(t, "-dir", repo, "import-dir", "pa", fixdir)
	if code != 0 || !strings.Contains(out, fmt.Sprintf("imported %d runs into pa", n)) {
		t.Fatalf("import-dir: code %d out %q err %q", code, out, errOut)
	}
	return repo
}

// TestAnalyticsSubcommands drives the cohort analytics verbs — matrix,
// cluster, outliers, nearest — over one repository, through the
// default path (dense at this size), -exact and -indexed, comparing
// the full output.
func TestAnalyticsSubcommands(t *testing.T) {
	repo := importCohort(t, 4)

	code, out, errOut := runCLI(t, "-dir", repo, "matrix", "pa")
	if code != 0 || !strings.Contains(out, "medoid:") || !strings.Contains(out, "clustering:") {
		t.Fatalf("matrix: code %d out %q err %q", code, out, errOut)
	}

	dense := []string{clusterDense, outliersDense, nearestDense}
	indexed := []string{clusterIndexed, outliersIndexed, nearestIndexed}
	for _, tc := range []struct {
		flags []string
		want  []string
	}{
		{nil, dense},
		{[]string{"-exact"}, dense},
		{[]string{"-indexed"}, indexed},
	} {
		for i, args := range analyticsArgs {
			args = append(append([]string{"-dir", repo}, args...), tc.flags...)
			code, out, errOut := runCLI(t, args...)
			if code != 0 || out != tc.want[i] || errOut != "" {
				t.Errorf("%v: code %d err %q\ngot:\n%s\nwant:\n%s", args[2:], code, errOut, out, tc.want[i])
			}
		}
	}
	// -indexed and -exact together is a usage error.
	if code, out, errOut := runCLI(t, "-dir", repo, "cluster", "pa", "-indexed", "-exact"); code != 1 || out != "" ||
		errOut != "provstore: -indexed and -exact are mutually exclusive\n" {
		t.Fatalf("indexed+exact: code %d out %q err %q", code, out, errOut)
	}
	// nearest for a run that does not exist names the run, on every path.
	for _, flags := range [][]string{nil, {"-exact"}, {"-indexed"}} {
		args := append([]string{"-dir", repo, "nearest", "pa", "zz"}, flags...)
		if code, out, errOut := runCLI(t, args...); code != 1 || out != "" ||
			errOut != "provstore: unknown run \"zz\" of \"pa\"\n" {
			t.Fatalf("nearest unknown %v: code %d out %q err %q", flags, code, out, errOut)
		}
	}
}

// TestAnalyticsDefaultIndexesAtThreshold: a cohort of 256 runs, the
// hybrid cohort's default index threshold, answers through the metric
// index without a flag, so the default output equals -indexed.
func TestAnalyticsDefaultIndexesAtThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("imports and indexes 256 runs")
	}
	repo := importCohort(t, 256)
	for _, args := range analyticsArgs {
		args = append([]string{"-dir", repo}, args...)
		code, def, errOut := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v: code %d err %q", args[2:], code, errOut)
		}
		_, idx, _ := runCLI(t, append(args, "-indexed")...)
		if def != idx {
			t.Errorf("%v: default output differs from -indexed\ndefault:\n%s\n-indexed:\n%s", args[2:], def, idx)
		}
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
