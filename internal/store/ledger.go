package store

// Ledger queries over the snapshot layer: per-run inclusion proofs,
// per-spec heads, the whole-repository root, and the verifier that
// re-hashes segment frames against the ledger. The ledger itself is
// written by commitLocked (one record per group commit or delete);
// everything here only reads.

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/ledger"
)

// RunProof is everything a client needs to verify one run's inclusion
// in the repository history without trusting the server: fold Leaf up
// Path to Root, chain Prev+Root and then each root in Chain to Head,
// and compare Head against the spec's head in /v1/stats (whose
// per-spec heads in turn determine the repository root).
type RunProof struct {
	Spec string `json:"spec"`
	Run  string `json:"run"`
	// Format is the attesting record's format, which fixes the leaf
	// form (ledger.AttestLeaf). Hash is the content hash of the run's
	// codec frame; Leaf its Merkle leaf.
	Format int    `json:"v,omitempty"`
	Hash   string `json:"hash"`
	Leaf   string `json:"leaf"`
	// Batch is the ledger seq of the record that attested the frame,
	// Index the leaf's position among the record's BatchSize leaves.
	Batch     int64 `json:"batch"`
	Index     int   `json:"index"`
	BatchSize int   `json:"batch_size"`
	// Path is the leaf-to-root sibling path inside the batch.
	Path []ledger.Step `json:"path"`
	Root string        `json:"root"`
	// Prev is the ledger head before the batch; Chain the roots of
	// every later batch, oldest first; Head the spec's current head.
	Prev  string   `json:"prev"`
	Chain []string `json:"chain"`
	Head  string   `json:"head"`
}

// SpecLedger summarizes one spec's ledger for /v1/stats.
type SpecLedger struct {
	Head    string `json:"head"`
	Batches int64  `json:"batches"`
}

// RunProof builds the inclusion proof of one run's current frame.
func (s *Store) RunProof(specName, runName string) (*RunProof, error) {
	if err := ValidateName(specName); err != nil {
		return nil, err
	}
	if err := ValidateName(runName); err != nil {
		return nil, err
	}
	e, err := s.manifestEntry(specName, runName)
	if err != nil {
		return nil, err
	}
	recs, err := s.readLedger(specName)
	if err != nil {
		return nil, fmt.Errorf("store: ledger of %q: %w", specName, err)
	}
	var rec *ledger.Record
	for i := range recs {
		if recs[i].Seq == e.Batch {
			rec = &recs[i]
			break
		}
	}
	if rec == nil {
		return nil, fmt.Errorf("store: ledger of %q has no batch %d attesting run %q", specName, e.Batch, runName)
	}
	idx := -1
	for i, l := range rec.Runs {
		if l.Run == runName && l.Hash == e.Hash {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("store: batch %d of %q does not attest run %q with hash %s", e.Batch, specName, runName, e.Hash)
	}
	leaves, err := rec.LeafHashes()
	if err != nil {
		return nil, err
	}
	path, err := ledger.Prove(leaves, idx)
	if err != nil {
		return nil, err
	}
	p := &RunProof{
		Spec:      specName,
		Run:       runName,
		Format:    rec.Format,
		Hash:      e.Hash,
		Leaf:      leaves[idx].Hex(),
		Batch:     rec.Seq,
		Index:     idx,
		BatchSize: len(leaves),
		Path:      path,
		Root:      rec.Root,
		Prev:      rec.Prev,
		Chain:     make([]string, 0, len(recs)-int(rec.Seq)),
		Head:      recs[len(recs)-1].Head,
	}
	for _, r := range recs {
		if r.Seq > rec.Seq {
			p.Chain = append(p.Chain, r.Root)
		}
	}
	return p, nil
}

// VerifyProof replays a RunProof completely client-side, returning
// the ledger head it implies. Comparing that head with the spec's
// published head is the caller's job.
func VerifyProof(p *RunProof) (string, error) {
	content, err := ledger.Parse(p.Hash)
	if err != nil {
		return "", err
	}
	leaf, err := ledger.AttestLeaf(p.Format, p.Run, content)
	if err != nil {
		return "", err
	}
	if leaf.Hex() != p.Leaf {
		return "", fmt.Errorf("store: proof leaf %s does not match hash %s", p.Leaf, p.Hash)
	}
	root, err := ledger.FoldProof(leaf, p.Path)
	if err != nil {
		return "", err
	}
	if root.Hex() != p.Root {
		return "", fmt.Errorf("store: proof path folds to %s, batch root is %s", root.Hex(), p.Root)
	}
	head, err := ledger.Parse(p.Prev)
	if err != nil {
		return "", err
	}
	head = ledger.Extend(head, root)
	for _, r := range p.Chain {
		rh, err := ledger.Parse(r)
		if err != nil {
			return "", err
		}
		head = ledger.Extend(head, rh)
	}
	if head.Hex() != p.Head {
		return "", fmt.Errorf("store: proof chain folds to %s, ledger head is %s", head.Hex(), p.Head)
	}
	return head.Hex(), nil
}

// LedgerHeads returns every spec's ledger summary plus the
// repository root folded over them (sorted spec order). It reads each
// spec's append cursor, loaded from ledger.log once and advanced by
// every commit, so its cost does not grow with the ledger's history.
func (s *Store) LedgerHeads() (map[string]SpecLedger, string, error) {
	specs, err := s.ListSpecs()
	if err != nil {
		return nil, "", err
	}
	sort.Strings(specs)
	out := make(map[string]SpecLedger, len(specs))
	heads := make(map[string]ledger.Hash, len(specs))
	for _, name := range specs {
		st := s.snap(name)
		st.mu.Lock()
		if !st.ledgerLoaded {
			if _, _, err := s.loadLedgerLocked(name, st); err != nil {
				st.mu.Unlock()
				return nil, "", err
			}
		}
		heads[name] = st.ledgerHead
		out[name] = SpecLedger{Head: st.ledgerHead.Hex(), Batches: st.ledgerSeq}
		st.mu.Unlock()
	}
	return out, ledger.RepoRoot(specs, heads).Hex(), nil
}

// VerifyIssue is one divergence found by VerifyLedger: the spec, the
// first batch it implicates (0 when no batch can be named), the run if
// one is implicated, and what went wrong.
type VerifyIssue struct {
	Spec   string `json:"spec"`
	Batch  int64  `json:"batch"`
	Run    string `json:"run,omitempty"`
	Detail string `json:"detail"`
}

func (i VerifyIssue) String() string {
	msg := fmt.Sprintf("spec %s", i.Spec)
	if i.Batch > 0 {
		msg += fmt.Sprintf(" batch %d", i.Batch)
	}
	if i.Run != "" {
		msg += fmt.Sprintf(" run %s", i.Run)
	}
	return msg + ": " + i.Detail
}

// VerifyReport is the outcome of a VerifyLedger pass.
type VerifyReport struct {
	Specs   int           `json:"specs"`
	Batches int64         `json:"batches"`
	Runs    int           `json:"runs"`
	Issues  []VerifyIssue `json:"issues,omitempty"`
}

// OK reports whether the pass found no divergence.
func (r VerifyReport) OK() bool { return len(r.Issues) == 0 }

// VerifyLedger re-validates the ledger chain of each named spec (all
// specs when none are named), compares the run index with the live run
// set the ledger records in both directions, and re-hashes every
// indexed run frame in the segment against its attested content hash.
// Issues are reported in batch order per spec, so Issues[0] names the
// first divergent batch. Dead segment bytes (dropped or superseded
// frames awaiting compaction) are not covered.
func (s *Store) VerifyLedger(specNames ...string) (VerifyReport, error) {
	var report VerifyReport
	if len(specNames) == 0 {
		all, err := s.ListSpecs()
		if err != nil {
			return report, err
		}
		specNames = all
	}
	sort.Strings(specNames)
	for _, specName := range specNames {
		if err := ValidateName(specName); err != nil {
			return report, err
		}
		if _, err := s.be.Stat(specXMLKey(specName)); err != nil {
			return report, fmt.Errorf("store: unknown spec %q: %w", specName, err)
		}
		report.Specs++
		s.verifySpecLedger(specName, &report)
	}
	sort.SliceStable(report.Issues, func(i, j int) bool {
		a, b := report.Issues[i], report.Issues[j]
		if a.Spec != b.Spec {
			return a.Spec < b.Spec
		}
		return a.Batch < b.Batch
	})
	return report, nil
}

func (s *Store) verifySpecLedger(specName string, report *VerifyReport) {
	// The index is loaded before the ledger is read, and both under the
	// spec's lock: the first load of a spec an older release wrote
	// appends its upgrade record, and a commit in between would show a
	// ledger ahead of the index.
	st := s.snap(specName)
	st.mu.Lock()
	merr := s.loadManifestLocked(specName, st)
	var entries map[string]snapEntry
	if merr == nil {
		entries = make(map[string]snapEntry, len(st.manifest.Runs))
		for name, e := range st.manifest.Runs {
			entries[name] = e
		}
	}
	recs, lerr := s.readLedger(specName)
	st.mu.Unlock()
	report.Batches += int64(len(recs))
	if lerr != nil {
		report.Issues = append(report.Issues, VerifyIssue{
			Spec: specName, Batch: int64(len(recs)) + 1, Detail: lerr.Error(),
		})
	}
	if bad, err := ledger.VerifyChain(recs); err != nil {
		report.Issues = append(report.Issues, VerifyIssue{Spec: specName, Batch: bad, Detail: err.Error()})
	}
	if merr != nil {
		// A ledger that cannot be parsed refuses the load too; the issue
		// then names the same batch, so Issues[0] stays the first
		// divergent one.
		var batch int64
		if lerr != nil {
			batch = int64(len(recs)) + 1
		}
		report.Issues = append(report.Issues, VerifyIssue{Spec: specName, Batch: batch, Detail: merr.Error()})
		return
	}

	live := foldLedger(recs)
	if lerr == nil { // a log cut short cannot show the deletes after the cut
		for _, name := range sortedKeys(live) {
			if _, ok := entries[name]; !ok && live[name].Hash != "" {
				report.Issues = append(report.Issues, VerifyIssue{Spec: specName, Batch: live[name].Batch, Run: name,
					Detail: "attested by this batch and never deleted, but missing from the run index"})
			}
		}
	}
	// scanned lazily maps run name -> set of content hashes actually
	// present anywhere in the segment; built on the first offset miss
	// so stale offsets (a compaction that crashed before its manifest
	// save) fall back to content, not position.
	var scanned map[string]map[string]segLoc
	for _, name := range sortedKeys(entries) {
		e := entries[name]
		report.Runs++
		issue := func(detail string) {
			report.Issues = append(report.Issues, VerifyIssue{Spec: specName, Batch: e.Batch, Run: name, Detail: detail})
		}
		a, ok := live[name]
		switch {
		case e.Hash == "" || e.Batch <= 0:
			issue("manifest entry carries no content hash")
			continue
		case !ok:
			issue("no ledger batch attests the run")
			continue
		case a.Hash == "":
			issue(fmt.Sprintf("deleted by batch %d but still indexed", a.Batch))
			continue
		case a != attest{e.Hash, e.Batch}:
			issue(fmt.Sprintf("the ledger last attests hash %s in batch %d, not this hash %s", a.Hash, a.Batch, e.Hash))
			continue
		}
		if s.segmentFrameIntact(specName, name, e) {
			continue
		}
		if scanned == nil {
			seg, _ := s.be.ReadFile(segmentKey(specName))
			scanned = scanSegment(seg)
		}
		if _, ok := scanned[name][e.Hash]; ok {
			continue // frame intact, just at a different offset
		}
		issue(fmt.Sprintf("segment frame does not hash to attested %s", e.Hash))
	}
}

// attest is a run's last ledger event: the content hash and batch of
// its last attestation, or a tombstone (Hash "") and its batch.
type attest struct {
	Hash  string
	Batch int64
}

// foldLedger folds ledger records, in seq order, into each named run's
// last event: an attestation sets the run's (hash, batch), a tombstone
// removes the run. The live run set is the runs whose hash is set.
func foldLedger(recs []ledger.Record) map[string]attest {
	out := map[string]attest{}
	for _, rec := range recs {
		for _, l := range rec.Runs {
			out[l.Run] = attest{l.Hash, rec.Seq}
		}
		for _, name := range rec.Deleted {
			out[name] = attest{Batch: rec.Seq}
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// segLoc is where scanSegment found a record: its offset and length
// in the segment, header included.
type segLoc struct{ Offset, Length int64 }

// scanSegment walks segment bytes record by record, collecting where
// every (run name, frame content hash) it can parse lives. Used by the
// verifier and by frame relocation when manifest offsets are stale; a
// malformed region ends the scan (later records are unreachable
// without valid framing).
func scanSegment(data []byte) map[string]map[string]segLoc {
	out := map[string]map[string]segLoc{}
	for pos := 0; pos < len(data); {
		n, w := binary.Uvarint(data[pos:])
		if w <= 0 || n > uint64(len(data)-pos-w) {
			break
		}
		nameEnd := pos + w + int(n)
		name := string(data[pos+w : nameEnd])
		size, err := codec.FrameSize(data[nameEnd:])
		if err != nil {
			break
		}
		h := codec.ContentHash(data[nameEnd : nameEnd+size])
		if out[name] == nil {
			out[name] = map[string]segLoc{}
		}
		out[name][hex.EncodeToString(h[:])] = segLoc{Offset: int64(pos), Length: int64(nameEnd + size - pos)}
		pos = nameEnd + size
	}
	return out
}
