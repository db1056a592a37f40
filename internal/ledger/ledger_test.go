package ledger

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

func contentHash(i int) Hash {
	return sha256.Sum256([]byte(fmt.Sprintf("frame-%d", i)))
}

func leaves(n int) []Hash {
	out := make([]Hash, n)
	for i := range out {
		out[i] = Leaf(contentHash(i))
	}
	return out
}

func TestHashHexRoundTrip(t *testing.T) {
	h := contentHash(7)
	back, err := Parse(h.Hex())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if back != h {
		t.Fatalf("round trip changed hash: %s != %s", back.Hex(), h.Hex())
	}
	if _, err := Parse("zz"); err == nil {
		t.Fatal("Parse accepted non-hex input")
	}
	if _, err := Parse("abcd"); err == nil {
		t.Fatal("Parse accepted short input")
	}
}

func TestDomainSeparation(t *testing.T) {
	// The same 32 bytes hashed at different levels must never collide.
	c := contentHash(0)
	if Leaf(c) == c {
		t.Fatal("leaf hash equals content hash")
	}
	if node(c, c) == Extend(c, c) {
		t.Fatal("interior node and chain link collide")
	}
}

// TestProofsAllSizes exercises inclusion proofs for every index of
// every batch size up to 33 (past one promoted-odd-node level and one
// full level doubling).
func TestProofsAllSizes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		ls := leaves(n)
		root := Root(ls)
		for i := 0; i < n; i++ {
			steps, err := Prove(ls, i)
			if err != nil {
				t.Fatalf("n=%d i=%d Prove: %v", n, i, err)
			}
			got, err := FoldProof(ls[i], steps)
			if err != nil {
				t.Fatalf("n=%d i=%d FoldProof: %v", n, i, err)
			}
			if got != root {
				t.Fatalf("n=%d i=%d proof does not reach root", n, i)
			}
		}
	}
}

func TestProofRejectsWrongLeaf(t *testing.T) {
	ls := leaves(8)
	root := Root(ls)
	steps, err := Prove(ls, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FoldProof(Leaf(contentHash(99)), steps)
	if err != nil {
		t.Fatal(err)
	}
	if got == root {
		t.Fatal("proof verified for a leaf that is not in the tree")
	}
	if _, err := Prove(ls, 8); err == nil {
		t.Fatal("Prove accepted out-of-range index")
	}
	if _, err := FoldProof(ls[0], []Step{{Dir: "X", Sibling: ls[1].Hex()}}); err == nil {
		t.Fatal("FoldProof accepted bad direction")
	}
}

func TestSingleLeafRootIsLeaf(t *testing.T) {
	ls := leaves(1)
	if Root(ls) != ls[0] {
		t.Fatal("single-leaf root should be the leaf itself")
	}
	steps, err := Prove(ls, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 0 {
		t.Fatalf("single-leaf proof should be empty, got %d steps", len(steps))
	}
}

func TestRepoRootOrderIndependence(t *testing.T) {
	heads := map[string]Hash{"a": contentHash(1), "b": contentHash(2)}
	r1 := RepoRoot([]string{"a", "b"}, heads)
	r2 := RepoRoot([]string{"b", "a"}, heads)
	if r1 == r2 {
		t.Fatal("repo root must depend on canonical spec order")
	}
	if !RepoRoot(nil, nil).IsZero() {
		t.Fatal("empty repository root should be zero")
	}
	// Length-prefixed names: ("ab","c") must differ from ("a","bc").
	h := contentHash(3)
	x := RepoRoot([]string{"ab"}, map[string]Hash{"ab": h})
	y := RepoRoot([]string{"a"}, map[string]Hash{"a": h})
	if x == y {
		t.Fatal("repo root ambiguous under name concatenation")
	}
}

func batchRecord(t *testing.T, seq int64, prev Hash, ids ...int) Record {
	t.Helper()
	var bl []BatchLeaf
	for _, id := range ids {
		bl = append(bl, BatchLeaf{Run: fmt.Sprintf("r%d", id), Hash: contentHash(id).Hex()})
	}
	rec, err := NewRecord(seq, prev, bl)
	if err != nil {
		t.Fatalf("NewRecord: %v", err)
	}
	return rec
}

// marshalLog renders records as the ledger log a store appends.
func marshalLog(t *testing.T, recs ...Record) []byte {
	t.Helper()
	var log []byte
	for _, rec := range recs {
		line, err := MarshalRecord(rec)
		if err != nil {
			t.Fatalf("MarshalRecord: %v", err)
		}
		log = append(log, line...)
	}
	return log
}

func TestLogAppendReadVerify(t *testing.T) {
	var written []Record
	prev := Zero
	for seq := int64(1); seq <= 3; seq++ {
		rec := batchRecord(t, seq, prev, int(seq)*10, int(seq)*10+1)
		written = append(written, rec)
		prev, _ = Parse(rec.Head)
	}
	recs, err := ParseLog(marshalLog(t, written...))
	if err != nil {
		t.Fatalf("ParseLog: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if bad, err := VerifyChain(recs); err != nil || bad != 0 {
		t.Fatalf("VerifyChain: bad=%d err=%v", bad, err)
	}
}

func TestReadLogTornTail(t *testing.T) {
	log := marshalLog(t, batchRecord(t, 1, Zero, 1))
	// Simulate a crash mid-append: half a JSON line, no newline.
	log = append(log, `{"seq":2,"prev":"ab`...)
	recs, err := ParseLog(log)
	if err != nil {
		t.Fatalf("torn tail should not be an error: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
}

func TestReadLogMalformedMiddleIsError(t *testing.T) {
	r1 := batchRecord(t, 1, Zero, 1)
	head, _ := Parse(r1.Head)
	log := marshalLog(t, r1)
	log = append(log, "not json\n"...)
	log = append(log, marshalLog(t, batchRecord(t, 2, head, 2))...)
	recs, err := ParseLog(log)
	if err == nil {
		t.Fatal("malformed middle line should be an error")
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records before the malformed line, want 1", len(recs))
	}
}

func TestVerifyChainDetectsTampering(t *testing.T) {
	r1 := batchRecord(t, 1, Zero, 1, 2, 3)
	h1, _ := Parse(r1.Head)
	r2 := batchRecord(t, 2, h1, 4, 5)
	h2, _ := Parse(r2.Head)
	r3 := batchRecord(t, 3, h2, 6)

	// Swap one leaf hash inside batch 2: root no longer matches.
	bad2 := r2
	bad2.Runs = append([]BatchLeaf(nil), r2.Runs...)
	bad2.Runs[0].Hash = contentHash(99).Hex()
	if bad, err := VerifyChain([]Record{r1, bad2, r3}); err == nil || bad != 2 {
		t.Fatalf("tampered leaf: bad=%d err=%v", bad, err)
	}

	// Rewrite batch 2 wholesale (recomputed root AND head): batch 3's
	// prev link must expose it.
	forged, err := NewRecord(2, h1, []BatchLeaf{{Run: "x", Hash: contentHash(50).Hex()}})
	if err != nil {
		t.Fatal(err)
	}
	if bad, err := VerifyChain([]Record{r1, forged, r3}); err == nil || bad != 3 {
		t.Fatalf("forged batch: bad=%d err=%v", bad, err)
	}

	// Dropped batch: seq gap.
	if bad, err := VerifyChain([]Record{r1, r3}); err == nil || bad != 2 {
		t.Fatalf("dropped batch: bad=%d err=%v", bad, err)
	}

	// Sound chain sanity.
	if bad, err := VerifyChain([]Record{r1, r2, r3}); err != nil || bad != 0 {
		t.Fatalf("sound chain rejected: bad=%d err=%v", bad, err)
	}
}

func TestRecordCheckErrorNamesBatch(t *testing.T) {
	rec := batchRecord(t, 4, Zero, 1)
	rec.Root = strings.Repeat("00", 32)
	err := rec.Check(Zero)
	if err == nil || !strings.Contains(err.Error(), "batch 4") {
		t.Fatalf("error should name the batch: %v", err)
	}
}
