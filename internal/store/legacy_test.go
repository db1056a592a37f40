package store_test

// Repositories written before frames became the only stored copy of a
// run kept every run twice: <spec>/runs/<run>.xml, which was
// authoritative, plus a frame indexed by a version-2 manifest carrying
// an XML fingerprint per entry. These tests build that layout and
// require the first open to migrate it transparently.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wfxml"
)

// legacyDocs are the run documents of a legacy repository, by name
// (what the old layout listed and served), plus the segment offset of
// each frame its manifest recorded.
type legacyDocs struct {
	docs    map[string][]byte
	offsets map[string]float64
}

func manifestOffsets(t *testing.T, raw []byte) map[string]float64 {
	t.Helper()
	var m struct {
		Runs map[string]struct {
			Offset float64 `json:"offset"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for name, e := range m.Runs {
		out[name] = e.Offset
	}
	return out
}

// writeLegacyRepo builds a repository of the older layout under dir:
//   - r0..r2 have an XML document and a live v2 manifest entry;
//   - r3's document was rewritten after its frame was taken (the XML
//     was authoritative, so r3 is the new content);
//   - r4 has a document and a frame in the segment but no entry;
//   - r5 has a document and no frame at all;
//   - ghost has an entry and a frame but no document, so the old
//     layout did not list it.
func writeLegacyRepo(t *testing.T, dir string) legacyDocs {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSpec("pa", pa); err != nil {
		t.Fatal(err)
	}
	sp, err := st.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	doc := func(name string) []byte {
		r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := wfxml.EncodeRun(&buf, r, name); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	docs := map[string][]byte{}
	var batch []store.RunData
	for _, name := range []string{"r0", "r1", "r2", "r3", "r4", "ghost"} {
		d := doc(name)
		batch = append(batch, store.RunData{Name: name, XML: d})
		docs[name] = d
	}
	if _, err := st.ImportRuns("pa", batch, 2); err != nil {
		t.Fatal(err)
	}
	// Checkpoint the import: the older layout saved its manifest after
	// every commit.
	if _, err := st.Snapshot("pa"); err != nil {
		t.Fatal(err)
	}
	docs["r3"] = doc("r3")
	docs["r5"] = doc("r5")
	delete(docs, "ghost")

	be := st.Backend()
	for name, d := range docs {
		if err := be.WriteFile("pa/runs/"+name+".xml", d); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := be.ReadFile("pa/snapshot/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = 2
	runs := m["runs"].(map[string]any)
	delete(runs, "r4")
	for name, e := range runs {
		e.(map[string]any)["xml_size"] = len(docs[name])
		e.(map[string]any)["xml_mod_nanos"] = 1
		e.(map[string]any)["xml_sha256"] = strings.Repeat("0", 64)
	}
	if raw, err = json.MarshalIndent(m, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := be.WriteFile("pa/snapshot/manifest.json", raw); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return legacyDocs{docs: docs, offsets: manifestOffsets(t, raw)}
}

// pristineServer imports the legacy documents into a fresh repository
// and serves it: the answers the migrated repository must give.
func pristineServer(t *testing.T, docs map[string][]byte) *server.Server {
	t.Helper()
	st := store.OpenBackend(store.NewMemoryBackend())
	pa, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSpec("pa", pa); err != nil {
		t.Fatal(err)
	}
	var batch []store.RunData
	for name, d := range docs {
		batch = append(batch, store.RunData{Name: name, XML: d})
	}
	if _, err := st.ImportRuns("pa", batch, 2); err != nil {
		t.Fatal(err)
	}
	return server.New(st, server.Options{})
}

func get(t *testing.T, h http.Handler, target string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d %q", target, rec.Code, rec.Body.String())
	}
	return strings.ReplaceAll(rec.Body.String(), `"cached":true`, `"cached":false`)
}

// requireNoRunDocuments fails if any key is left under pa/runs/.
func requireNoRunDocuments(t *testing.T, st *store.Store) {
	t.Helper()
	entries, err := st.Backend().List("pa/runs")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("run documents left after migration: %v", entries)
	}
}

// TestLegacyRepositoryMigrates opens a legacy repository the way
// provserved does (Open, PreloadAll, Snapshot) and requires the same
// runs, the same /v1 answers as a repository that imported the same
// documents, a green ledger, and no run documents left.
func TestLegacyRepositoryMigrates(t *testing.T) {
	t.Run("fs", func(t *testing.T) {
		dir := t.TempDir()
		legacy := writeLegacyRepo(t, dir)
		docs := legacy.docs
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := st.PreloadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != 1 || stats[0].Runs != len(docs) {
			t.Fatalf("PreloadAll = %+v, want %d runs", stats, len(docs))
		}
		for _, ps := range stats {
			if _, err := st.Snapshot(ps.Spec); err != nil {
				t.Fatal(err)
			}
		}
		requireNoRunDocuments(t, st)
		report, err := st.VerifyLedger()
		if err != nil {
			t.Fatal(err)
		}
		if !report.OK() || report.Runs != len(docs) {
			t.Fatalf("VerifyLedger = %+v, want green over %d runs", report, len(docs))
		}
		raw, err := st.Backend().ReadFile("pa/snapshot/manifest.json")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte(`"version": 5`)) || bytes.Contains(raw, []byte("xml_")) {
			t.Fatalf("manifest not upgraded to version 5:\n%s", raw)
		}
		// Upgraded in place, not discarded: unchanged runs keep the
		// frames they already had.
		if got := manifestOffsets(t, raw); fmt.Sprint(got["r0"], got["r1"], got["r2"]) != fmt.Sprint(legacy.offsets["r0"], legacy.offsets["r1"], legacy.offsets["r2"]) {
			t.Fatalf("migration moved unchanged frames: %v, were %v", got, legacy.offsets)
		}

		migrated := server.New(st, server.Options{})
		defer migrated.Close()
		pristine := pristineServer(t, docs)
		defer pristine.Close()
		targets := []string{
			"/v1/specs/pa/runs",
			"/v1/specs/pa/diff/r0/r3?cost=length",
			"/v1/specs/pa/diff/r4/r5",
			"/v1/specs/pa/cohort",
			"/v1/specs/pa/nearest?run=r5&k=3",
		}
		for _, target := range targets {
			if got, want := get(t, migrated, target), get(t, pristine, target); got != want {
				t.Errorf("%s:\nmigrated: %s\npristine: %s", target, got, want)
			}
		}

		// A later open sees a current-format repository: nothing to
		// migrate, the same runs.
		again, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		names, err := again.ListRuns("pa")
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(names) != "[r0 r1 r2 r3 r4 r5]" {
			t.Fatalf("ListRuns after reopen = %v", names)
		}
	})
	t.Run("fs-v3", testV3Manifest)
}

// storeAnswers is what a repository serves through the store API: its
// run list, each run's decode (rendered as XML) and inclusion proof,
// and its verify report.
type storeAnswers struct {
	runs   []string
	docs   map[string]string
	proofs map[string]string
	report store.VerifyReport
}

func answersOf(t *testing.T, st *store.Store) storeAnswers {
	t.Helper()
	names, err := st.ListRuns("pa")
	if err != nil {
		t.Fatal(err)
	}
	a := storeAnswers{runs: names, docs: map[string]string{}, proofs: map[string]string{}}
	for _, name := range names {
		r, err := st.LoadRun("pa", name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := wfxml.EncodeRun(&buf, r, name); err != nil {
			t.Fatal(err)
		}
		a.docs[name] = buf.String()
		p, err := st.RunProof("pa", name)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		a.proofs[name] = string(raw)
	}
	if a.report, err = st.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
	return a
}

// writeV3Repo builds a repository as the code before checkpoints left
// it: the same segment and ledger, and a version-3 manifest without a
// seq, saved after the last operation. r1 is deleted between batches,
// so replaying the whole ledger would resurrect it. It returns what
// the repository served before the manifest was rewritten.
func writeV3Repo(t *testing.T, dir string) storeAnswers {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := gen.Catalog("PA")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSpec("pa", pa); err != nil {
		t.Fatal(err)
	}
	sp, err := st.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	importRuns := func(names ...string) {
		var batch []store.RunData
		for _, name := range names {
			r, err := gen.RandomRun(sp, gen.DefaultRunParams(), rng)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := wfxml.EncodeRun(&buf, r, name); err != nil {
				t.Fatal(err)
			}
			batch = append(batch, store.RunData{Name: name, XML: buf.Bytes()})
		}
		if _, err := st.ImportRuns("pa", batch, 2); err != nil {
			t.Fatal(err)
		}
	}
	importRuns("r0", "r1", "r2")
	importRuns("r3", "r0")
	if err := st.DeleteRun("pa", "r1"); err != nil {
		t.Fatal(err)
	}
	importRuns("r4")
	if _, err := st.Snapshot("pa"); err != nil {
		t.Fatal(err)
	}
	want := answersOf(t, st)

	be := st.Backend()
	raw, err := be.ReadFile("pa/snapshot/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = 3
	delete(m, "seq")
	if raw, err = json.MarshalIndent(m, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := be.WriteFile("pa/snapshot/manifest.json", raw); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// testV3Manifest: a version-3 manifest covers the whole ledger, so the
// repository opens serving exactly what it served before, and its next
// commit is still listed after a reopen.
func testV3Manifest(t *testing.T) {
	dir := t.TempDir()
	want := writeV3Repo(t, dir)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := answersOf(t, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("v3 repository serves\n%+v\nwant\n%+v", got, want)
	}
	if !want.report.OK() || fmt.Sprint(want.runs) != "[r0 r2 r3 r4]" {
		t.Fatalf("v3 fixture serves %v, verify %+v", want.runs, want.report)
	}
	pa, err := st.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	r, err := gen.RandomRun(pa, gen.DefaultRunParams(), rand.New(rand.NewSource(38)))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRun("pa", "r5", r); err != nil {
		t.Fatal(err)
	}
	again, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := answersOf(t, again)
	if fmt.Sprint(got.runs) != "[r0 r2 r3 r4 r5]" || !got.report.OK() {
		t.Fatalf("after a commit and a reopen: runs %v, verify %+v", got.runs, got.report)
	}
	for _, name := range got.runs {
		if name != "r5" && got.docs[name] != want.docs[name] {
			t.Fatalf("run %s changed across the commit", name)
		}
		p, err := again.RunProof("pa", name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.VerifyProof(p); err != nil {
			t.Fatalf("proof of %s after the commit: %v", name, err)
		}
	}
}

// TestLegacyRepositoryThroughOpen covers the other entry points: Open,
// which migrates every spec before it returns, followed by a plain
// LoadRun, Diff and DeleteRun.
func TestLegacyRepositoryThroughOpen(t *testing.T) {
	dir := t.TempDir()
	docs := writeLegacyRepo(t, dir).docs
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := st.LoadSpec("pa")
	if err != nil {
		t.Fatal(err)
	}
	r3, err := st.LoadRun("pa", "r3")
	if err != nil {
		t.Fatal(err)
	}
	want, err := wfxml.DecodeRun(bytes.NewReader(docs["r3"]), sp)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Tree.LabelSignature() != want.Tree.LabelSignature() {
		t.Fatal("r3 serves its stale frame, not its authoritative document")
	}
	if _, err := st.Diff("pa", "r4", "r5", cost.Unit{}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadRun("pa", "ghost"); err == nil {
		t.Fatal("a run without a document survived migration")
	}
	if err := st.DeleteRun("pa", "r5"); err != nil {
		t.Fatal(err)
	}
	requireNoRunDocuments(t, st)
	if matches, _ := filepath.Glob(filepath.Join(dir, "pa", "runs", "*")); len(matches) != 0 {
		t.Fatalf("files left under pa/runs: %v", matches)
	}
}

// TestPreloadReportsUpgrade: the open that migrates a legacy
// repository marks its spec upgraded in the preload stats (what
// provserved's warm-start line counts), and a later open of the now
// current repository does not.
func TestPreloadReportsUpgrade(t *testing.T) {
	dir := t.TempDir()
	writeLegacyRepo(t, dir)
	for i, want := range []bool{true, false} {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := st.PreloadAll()
		if err != nil || len(stats) != 1 || stats[0].Upgraded != want {
			t.Fatalf("open %d: PreloadAll = %+v, %v; want Upgraded %v", i+1, stats, err, want)
		}
		st.Close()
	}
}
