package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ledger"
)

// proofJSON marshals a run's proof for byte-for-byte comparisons.
func proofJSON(t *testing.T, s *Store, run string) []byte {
	t.Helper()
	p, err := s.RunProof("pa", run)
	if err != nil {
		t.Fatalf("proof %s: %v", run, err)
	}
	if _, err := VerifyProof(p); err != nil {
		t.Fatalf("proof %s does not verify: %v", run, err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func requireVerifyOK(t *testing.T, s *Store) VerifyReport {
	t.Helper()
	report, err := s.VerifyLedger()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("verify found divergence: %+v", report.Issues)
	}
	return report
}

// TestLedgerAttestsAndProves covers the happy path: a bulk import is
// one ledger batch, every run's proof verifies and anchors to the
// published head, and the repository root folds the per-spec heads.
func TestLedgerAttestsAndProves(t *testing.T) {
	dir := seedDir(t, 0)
	s := reopen(t, dir)
	batch := genRunXML(t, s, 5, 11, "w")
	stats, err := s.ImportRuns("pa", batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Hashes) != 5 {
		t.Fatalf("import returned %d hashes, want 5", len(stats.Hashes))
	}
	heads, root, err := s.LedgerHeads()
	if err != nil {
		t.Fatal(err)
	}
	if heads["pa"].Batches != 1 {
		t.Fatalf("batches = %d, want 1", heads["pa"].Batches)
	}
	if root == "" || strings.Trim(root, "0") == "" {
		t.Fatalf("repo root empty: %q", root)
	}
	for i, rd := range batch {
		p, err := s.RunProof("pa", rd.Name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Hash != stats.Hashes[i] {
			t.Fatalf("proof hash %s != import hash %s", p.Hash, stats.Hashes[i])
		}
		if p.Batch != 1 || p.BatchSize != 5 || p.Index != i {
			t.Fatalf("proof shape = batch %d size %d index %d", p.Batch, p.BatchSize, p.Index)
		}
		head, err := VerifyProof(p)
		if err != nil {
			t.Fatal(err)
		}
		if head != heads["pa"].Head {
			t.Fatalf("proof head %s != published head %s", head, heads["pa"].Head)
		}
	}
	report := requireVerifyOK(t, s)
	if report.Specs != 1 || report.Batches != 1 || report.Runs != 5 {
		t.Fatalf("report = %+v", report)
	}
}

// TestLedgerDedupOnReimport: re-importing byte-identical runs must
// not grow the segment (the frames are content-addressed) while still
// re-attesting the batch in a new ledger record.
func TestLedgerDedupOnReimport(t *testing.T) {
	dir := seedDir(t, 0)
	s := reopen(t, dir)
	batch := genRunXML(t, s, 4, 3, "d")
	if _, err := s.ImportRuns("pa", batch, 2); err != nil {
		t.Fatal(err)
	}
	before, err := s.Backend().Stat(segmentKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ImportRuns("pa", batch, 2); err != nil {
		t.Fatal(err)
	}
	after, err := s.Backend().Stat(segmentKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size != before.Size {
		t.Fatalf("identical re-import grew segment: %d -> %d bytes", before.Size, after.Size)
	}
	heads, _, err := s.LedgerHeads()
	if err != nil {
		t.Fatal(err)
	}
	if heads["pa"].Batches != 2 {
		t.Fatalf("re-import did not append a batch: %d", heads["pa"].Batches)
	}
	for _, rd := range batch {
		p, err := s.RunProof("pa", rd.Name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Batch != 2 {
			t.Fatalf("re-attested run still proves against batch %d", p.Batch)
		}
		if _, err := VerifyProof(p); err != nil {
			t.Fatal(err)
		}
	}
	requireVerifyOK(t, s)
}

// TestLedgerChainAcrossRestart: a cold store continues the chain
// instead of restarting it, and everything committed before the
// restart still proves.
func TestLedgerChainAcrossRestart(t *testing.T) {
	dir := seedDir(t, 0)
	s := reopen(t, dir)
	if _, err := s.ImportRuns("pa", genRunXML(t, s, 3, 5, "a"), 2); err != nil {
		t.Fatal(err)
	}
	headsBefore, rootBefore, err := s.LedgerHeads()
	if err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, dir)
	heads, root, err := s2.LedgerHeads()
	if err != nil {
		t.Fatal(err)
	}
	if root != rootBefore || heads["pa"] != headsBefore["pa"] {
		t.Fatalf("restart changed ledger: %+v -> %+v", headsBefore, heads)
	}
	if _, err := s2.ImportRuns("pa", genRunXML(t, s2, 2, 6, "b"), 2); err != nil {
		t.Fatal(err)
	}
	heads, _, err = s2.LedgerHeads()
	if err != nil {
		t.Fatal(err)
	}
	if heads["pa"].Batches != 2 {
		t.Fatalf("post-restart import did not chain: batches = %d", heads["pa"].Batches)
	}
	for _, run := range []string{"a0", "a1", "a2", "b0", "b1"} {
		proofJSON(t, s2, run)
	}
	requireVerifyOK(t, s2)
}

// TestCompactionPreservesProofs: compaction rewrites the segment but
// must not touch history — every inclusion proof is byte-for-byte
// identical across it, and verify stays green.
func TestCompactionPreservesProofs(t *testing.T) {
	dir := seedDir(t, 0)
	s := reopen(t, dir)
	if _, err := s.ImportRuns("pa", genRunXML(t, s, 6, 9, "c"), 2); err != nil {
		t.Fatal(err)
	}
	// Dead bytes: drop one run, overwrite another with fresh content.
	if err := s.DeleteRun("pa", "c0"); err != nil {
		t.Fatal(err)
	}
	redo := genRunXML(t, s, 2, 77, "c")[1:] // fresh content for c1
	if _, err := s.ImportRuns("pa", redo, 1); err != nil {
		t.Fatal(err)
	}
	live := []string{"c1", "c2", "c3", "c4", "c5"}
	before := make(map[string][]byte, len(live))
	for _, run := range live {
		before[run] = proofJSON(t, s, run)
	}

	st := s.snap("pa")
	st.mu.Lock()
	st.manifest.Dead = compactMinDeadBytes + 1
	err := s.maybeCompactLocked("pa", st)
	st.mu.Unlock()
	if err != nil {
		t.Fatalf("compaction: %v", err)
	}

	for _, run := range live {
		after := proofJSON(t, s, run)
		if !bytes.Equal(before[run], after) {
			t.Fatalf("compaction changed proof of %s:\n before %s\n after  %s", run, before[run], after)
		}
	}
	requireVerifyOK(t, s)
}

// TestCrashedCompactionLeavesVerifyGreen simulates dying between the
// segment rewrite and its checkpoint: the rewritten segment is on
// disk but the checkpoint still holds pre-compaction offsets. Offsets
// are stale, content is not — verify must fall back to scanning and
// stay green, and loads must relocate the frames by content.
func TestCrashedCompactionLeavesVerifyGreen(t *testing.T) {
	dir := seedDir(t, 0)
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
	preCompaction, err := s.Backend().ReadFile(manifestKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	st := s.snap("pa")
	st.mu.Lock()
	st.manifest.Dead = compactMinDeadBytes + 1
	err = s.maybeCompactLocked("pa", st)
	st.mu.Unlock()
	if err != nil {
		t.Fatalf("compaction: %v", err)
	}
	// "Crash": the checkpoint was never written.
	if err := s.Backend().WriteFile(manifestKey("pa"), preCompaction); err != nil {
		t.Fatal(err)
	}

	cold := reopen(t, dir)
	requireVerifyOK(t, cold)
	for _, run := range []string{"k1", "k2", "k3", "k4"} {
		if _, err := cold.LoadRun("pa", run); err != nil {
			t.Fatalf("load %s after crashed compaction: %v", run, err)
		}
		proofJSON(t, cold, run)
	}
}

// TestVerifyDetectsFlippedByte: one flipped byte in any live segment
// record — frame body, record header or embedded name — must turn
// verify red, naming the batch.
func TestVerifyDetectsFlippedByte(t *testing.T) {
	dir := seedDir(t, 0)
	s := reopen(t, dir)
	if _, err := s.ImportRuns("pa", genRunXML(t, s, 3, 21, "f"), 2); err != nil {
		t.Fatal(err)
	}
	be := openTestBackend(t, dir)
	orig, err := be.ReadFile(segmentKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 1, len(orig) / 2, len(orig) - 1} {
		tampered := append([]byte(nil), orig...)
		tampered[pos] ^= 0x01
		if err := be.WriteFile(segmentKey("pa"), tampered); err != nil {
			t.Fatal(err)
		}
		report, err := reopen(t, dir).VerifyLedger("pa")
		if err != nil {
			t.Fatal(err)
		}
		if report.OK() {
			t.Fatalf("flipped byte at offset %d not detected", pos)
		}
		if report.Issues[0].Batch <= 0 {
			t.Fatalf("issue does not name a batch: %+v", report.Issues[0])
		}
	}
	// Restore: clean state verifies again.
	if err := be.WriteFile(segmentKey("pa"), orig); err != nil {
		t.Fatal(err)
	}
	requireVerifyOK(t, reopen(t, dir))
}

// TestVerifyDetectsLedgerTampering: rewriting a committed batch
// record breaks either its own root or the next record's chain link.
func TestVerifyDetectsLedgerTampering(t *testing.T) {
	dir := seedDir(t, 0)
	s := reopen(t, dir)
	if _, err := s.ImportRuns("pa", genRunXML(t, s, 2, 31, "t"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ImportRuns("pa", genRunXML(t, s, 2, 32, "u"), 1); err != nil {
		t.Fatal(err)
	}
	be := openTestBackend(t, dir)
	orig, err := be.ReadFile(ledgerKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(orig), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("expected 2 ledger records, got %d", len(lines))
	}
	// Flip one hex digit inside the first record.
	tampered := bytes.Replace(orig, []byte(`"seq":1`), []byte(`"seq":9`), 1)
	if bytes.Equal(tampered, orig) {
		t.Fatal("tampering had no effect")
	}
	if err := be.WriteFile(ledgerKey("pa"), tampered); err != nil {
		t.Fatal(err)
	}
	report, err := reopen(t, dir).VerifyLedger("pa")
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Fatal("rewritten ledger record not detected")
	}
}

// TestVerifyNamesMalformedLedgerLine: a middle ledger line that is not
// JSON refuses the spec's index, yet VerifyLedger still names that
// line's batch first, and no commit is appended after it.
func TestVerifyNamesMalformedLedgerLine(t *testing.T) {
	dir := seedDir(t, 0)
	s := reopen(t, dir)
	for i := int64(0); i < 3; i++ {
		if _, err := s.ImportRuns("pa", genRunXML(t, s, 1, 41+i, fmt.Sprintf("m%d", i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	be := openTestBackend(t, dir)
	orig, err := be.ReadFile(ledgerKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(orig, []byte("\n"))
	if len(lines) != 4 || len(lines[3]) != 0 {
		t.Fatalf("expected 3 newline-terminated ledger records, got %q", orig)
	}
	lines[1] = []byte("{\"seq\":2,\n")
	tampered := bytes.Join(lines, nil)
	if err := be.WriteFile(ledgerKey("pa"), tampered); err != nil {
		t.Fatal(err)
	}
	s = reopen(t, dir)
	report, err := s.VerifyLedger("pa")
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() || report.Issues[0].Batch != 2 {
		t.Fatalf("want first issue at batch 2, got %+v", report.Issues)
	}
	if _, err := s.ImportRuns("pa", genRunXML(t, s, 1, 49, "late"), 1); err == nil || !errors.Is(err, ErrDamaged) {
		t.Fatalf("commit after a malformed ledger line = %v, want ErrDamaged", err)
	}
	if after, _ := be.ReadFile(ledgerKey("pa")); !bytes.Equal(after, tampered) {
		t.Fatal("ledger changed after the refused commit")
	}
}

// TestVerifyUnknownSpec: naming a spec that does not exist is an
// error, not a silent pass.
func TestVerifyUnknownSpec(t *testing.T) {
	s := reopen(t, seedDir(t, 0))
	if _, err := s.VerifyLedger("nope"); err == nil {
		t.Fatal("verify of unknown spec succeeded")
	}
}

// TestLedgerHeadsFromCursor: LedgerHeads answers from each spec's
// append cursor. Once the cursor is loaded a call reads no ledger
// bytes, however long the history, and its answer matches a full read
// of ledger.log after a commit, a delete, a compaction, a reopen and a
// torn tail.
func TestLedgerHeadsFromCursor(t *testing.T) {
	dir := seedDir(t, 0)
	cb := &countingBackend{Backend: openTestBackend(t, dir), reads: map[string]int64{}}
	s := OpenBackend(cb)
	ledgerBytes := func() int64 {
		cb.mu.Lock()
		defer cb.mu.Unlock()
		return cb.reads[ledgerKey("pa")]
	}
	check := func(step string) {
		t.Helper()
		heads, _, err := s.LedgerHeads()
		if err != nil {
			t.Fatal(err)
		}
		recs, err := s.readLedger("pa")
		if err != nil {
			t.Fatal(err)
		}
		want := SpecLedger{Head: ledger.Zero.Hex()}
		if len(recs) > 0 {
			want = SpecLedger{Head: recs[len(recs)-1].Head, Batches: int64(len(recs))}
		}
		if heads["pa"] != want {
			t.Fatalf("%s: LedgerHeads = %+v, ledger.log says %+v", step, heads["pa"], want)
		}
		before := ledgerBytes()
		if _, _, err := s.LedgerHeads(); err != nil {
			t.Fatal(err)
		}
		if n := ledgerBytes() - before; n != 0 {
			t.Fatalf("%s: a repeated LedgerHeads read %d ledger bytes, want 0", step, n)
		}
	}

	check("empty")
	if _, err := s.ImportRuns("pa", genRunXML(t, s, 4, 3, "h"), 2); err != nil {
		t.Fatal(err)
	}
	check("commit")
	if err := s.DeleteRun("pa", "h0"); err != nil {
		t.Fatal(err)
	}
	check("delete")
	if _, err := s.ImportRuns("pa", genRunXML(t, s, 2, 8, "h")[1:], 1); err != nil {
		t.Fatal(err)
	}
	st := s.snap("pa")
	st.mu.Lock()
	st.manifest.Dead = compactMinDeadBytes + 1
	err := s.maybeCompactLocked("pa", st)
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	check("compaction")
	s = OpenBackend(cb)
	check("reopen")
	if err := cb.Backend.Append(ledgerKey("pa"), []byte(`{"seq":99,"prev":`), false); err != nil {
		t.Fatal(err)
	}
	s = OpenBackend(cb)
	check("torn tail")
	if _, err := s.ImportRuns("pa", genRunXML(t, s, 1, 12, "t"), 1); err != nil {
		t.Fatal(err)
	}
	check("commit after torn tail")
	requireVerifyOK(t, s)
}

// TestLedgerTailParsesOnlyUncovered: a load parses the ledger from its
// end back to the checkpoint's seq, so a damaged line the checkpoint
// covers is left to VerifyLedger while one after it refuses the load.
func TestLedgerTailParsesOnlyUncovered(t *testing.T) {
	dir := seedDir(t, 0)
	s := reopen(t, dir)
	for i := int64(0); i < 3; i++ {
		if _, err := s.ImportRuns("pa", genRunXML(t, s, 1, 51+i, fmt.Sprintf("q%d", i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	data, err := s.Backend().ReadFile(ledgerKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	seqs := func(recs []ledger.Record) []int64 {
		var out []int64
		for _, r := range recs {
			out = append(out, r.Seq)
		}
		return out
	}
	for _, tc := range []struct {
		after int64
		want  string
	}{{0, "[1 2 3]"}, {1, "[2 3]"}, {3, "[]"}, {1 << 62, "[]"}} {
		recs, last, err := ledgerTail(data, tc.after)
		if err != nil || fmt.Sprint(seqs(recs)) != tc.want || last.Seq != 3 {
			t.Fatalf("after %d: recs %v last %d err %v, want %s last 3", tc.after, seqs(recs), last.Seq, err, tc.want)
		}
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines[0] = []byte("not json\n")
	damaged := bytes.Join(lines, nil)
	if recs, _, err := ledgerTail(damaged, 2); err != nil || fmt.Sprint(seqs(recs)) != "[3]" {
		t.Fatalf("covered damage: recs %v err %v", seqs(recs), err)
	}
	if _, _, err := ledgerTail(damaged, 0); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("uncovered damage: err %v, want one naming line 1", err)
	}
	if recs, last, err := ledgerTail(nil, 0); err != nil || len(recs) != 0 || last.Seq != 0 {
		t.Fatalf("empty log: recs %v last %d err %v", seqs(recs), last.Seq, err)
	}
}

// TestVerifyReportsSilentDrop: a run dropped from the checkpoint by
// hand is still live in the ledger, so VerifyLedger names it and the
// batch that attested it.
func TestVerifyReportsSilentDrop(t *testing.T) {
	dir := seedDir(t, 10)
	if _, err := reopen(t, dir).Snapshot("pa"); err != nil {
		t.Fatal(err)
	}
	be := openTestBackend(t, dir)
	raw, err := be.ReadFile(manifestKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m["runs"].(map[string]any), "r3")
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := be.WriteFile(manifestKey("pa"), raw); err != nil {
		t.Fatal(err)
	}
	s := reopen(t, dir)
	if names, err := s.ListRuns("pa"); err != nil || len(names) != 9 {
		t.Fatalf("ListRuns = %v, %v; want the 9 runs the checkpoint lists", names, err)
	}
	report, err := s.VerifyLedger("pa")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Issues) != 1 || report.Issues[0].Run != "r3" || report.Issues[0].Batch != 4 {
		t.Fatalf("VerifyLedger = %+v, want one issue naming run r3 of batch 4", report.Issues)
	}
}

// TestDeleteIsOneAppend: a delete writes exactly one synced ledger
// append, whatever the history, and the record tombstones the run.
func TestDeleteIsOneAppend(t *testing.T) {
	dir := seedDir(t, 3)
	log := &mutationLog{Backend: openTestBackend(t, dir)}
	s := OpenBackend(log)
	if _, err := s.ListRuns("pa"); err != nil {
		t.Fatal(err)
	}
	log.take()
	if err := s.DeleteRun("pa", "r1"); err != nil {
		t.Fatal(err)
	}
	if got, want := log.take(), []string{"append pa/snapshot/ledger.log sync=true"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("a delete wrote %q, want %q", got, want)
	}
	recs, err := s.readLedger("pa")
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1]; last.Format != ledger.Format || len(last.Runs) != 0 || fmt.Sprint(last.Deleted) != "[r1]" {
		t.Fatalf("delete record = %+v, want a current-format tombstone of r1", last)
	}
}

// TestOldFormatLedgerUpgrades: a repository an older release wrote —
// format-0 records, and a version-4 checkpoint that alone records the
// deletion of r1 — opens serving the checkpoint's runs. Its upgrade at
// open appends exactly one current-format record, which tombstones r1,
// and writes a current checkpoint; from then on the ledger decides the run
// set, so a lost checkpoint is rebuilt without r1. Proofs of runs that
// format-0 records attest keep their leaf form and verify, before and
// after later commits, and so do proofs of new commits.
func TestOldFormatLedgerUpgrades(t *testing.T) {
	dir := seedDir(t, 3)
	be := openTestBackend(t, dir)
	if _, err := reopen(t, dir).Snapshot("pa"); err != nil {
		t.Fatal(err)
	}
	downgradeLedger(t, be)
	raw, err := be.ReadFile(manifestKey("pa"))
	if err != nil {
		t.Fatal(err)
	}
	var m snapManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m.Runs, "r1") // how an older release deleted a run
	if raw, err = json.Marshal(&m); err != nil {
		t.Fatal(err)
	}
	if err := be.WriteFile(manifestKey("pa"), raw); err != nil {
		t.Fatal(err)
	}

	// Verify as the first call on the older repository, as
	// `provstore verify` makes it after store.Open: the upgrade record
	// counts, and the run it tombstones is not reported missing.
	if rep, err := reopenUpgraded(t, dir).VerifyLedger(); err != nil || !rep.OK() || rep.Batches != 4 || rep.Runs != 2 {
		t.Fatalf("first VerifyLedger of an older repository = %+v, %v; want OK over 4 batches and 2 runs", rep, err)
	}

	s := reopen(t, dir)
	if names, err := s.ListRuns("pa"); err != nil || fmt.Sprint(names) != "[r0 r2]" {
		t.Fatalf("ListRuns = %v, %v; want [r0 r2]", names, err)
	}
	recs, err := s.readLedger("pa")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].Format != ledger.Format || fmt.Sprint(recs[3].Deleted) != "[r1]" {
		t.Fatalf("ledger after the upgrade = %+v, want one appended tombstone of r1", recs)
	}
	old := proofJSON(t, s, "r0")
	if bytes.Contains(old, []byte(`"v"`)) {
		t.Fatalf("proof of a format-0 attestation carries a format: %s", old)
	}
	var p RunProof
	if err := json.Unmarshal(old, &p); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyProof(&p); err != nil {
		t.Fatalf("old-form proof does not verify: %v", err)
	}
	if _, err := s.ImportRuns("pa", genRunXML(t, s, 1, 7, "n"), 1); err != nil {
		t.Fatal(err)
	}
	if np, err := s.RunProof("pa", "n0"); err != nil || np.Format != ledger.Format {
		t.Fatalf("proof of a new commit = %+v, %v", np, err)
	}
	want := runAnswers(t, s)
	requireVerifyOK(t, s)

	if err := be.Remove(manifestKey("pa")); err != nil {
		t.Fatal(err)
	}
	rebuilt := reopen(t, dir)
	if got := runAnswers(t, rebuilt); got != want {
		t.Fatalf("rebuilt store serves\n%s\nwant\n%s", got, want)
	}
	requireVerifyOK(t, rebuilt)
}
