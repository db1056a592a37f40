// Package ledger implements the tamper-evident Merkle ledger that
// turns the store's snapshot layer into a verifiable history. Each
// group-committed batch of runs, and each delete, becomes one record:
// a Merkle tree whose leaves bind each attested run's name to the
// content hash of its codec frame, and each deleted run's name to a
// tombstone. The record's root is chained onto the previous ledger
// head, so the head after batch N commits to every frame and every
// removal in batches 1..N. A per-run inclusion proof is
// the classic leaf-to-root sibling path plus the chain of later batch
// roots, and a whole-repository root folds the per-spec heads together
// so one hash covers everything.
//
// All hashing is domain-separated SHA-256: leaves, interior nodes,
// chain links and the repository root each prepend a distinct tag
// byte, so a value from one level can never be replayed at another
// (the standard second-preimage defence for Merkle trees).
//
// The on-disk form is an append-only log of JSON-line records (one
// per group commit or delete). Records are self-delimiting lines, so a
// torn final line — a crash mid-append — is recognised and ignored,
// while any earlier malformed line is evidence of tampering.
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Hash is a SHA-256 digest. The zero value is the chain seed: the
// "previous head" of a spec's very first batch.
type Hash [sha256.Size]byte

// Zero is the chain seed / absent-hash sentinel.
var Zero Hash

// Domain-separation tags. Every hash in the ledger is
// SHA-256(tag || ...), with a distinct tag per level.
const (
	tagLeaf  = 0x00 // attestation leaf: H(0x00 || len || run || content hash)
	tagNode  = 0x01 // interior: H(0x01 || left || right)
	tagChain = 0x02 // chain link: H(0x02 || prev head || batch root)
	tagRepo  = 0x03 // repository root over per-spec heads
	tagTomb  = 0x04 // tombstone leaf: H(0x04 || len || run)
)

// Format is the record format this package writes: leaves bind run
// names, and a record may carry tombstones. Records without the field
// (format 0) predate it; their leaves are Leaf(content hash).
const Format = 2

// Hex renders the digest as lowercase hex.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether h is the zero (seed) hash.
func (h Hash) IsZero() bool { return h == Zero }

// Parse decodes a lowercase-hex digest.
func Parse(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil {
		return Zero, fmt.Errorf("ledger: bad hash %q: %w", s, err)
	}
	if len(b) != sha256.Size {
		return Zero, fmt.Errorf("ledger: bad hash length %d, want %d", len(b), sha256.Size)
	}
	copy(h[:], b)
	return h, nil
}

// Leaf maps a frame content hash onto its format-0 Merkle leaf.
func Leaf(content Hash) Hash {
	return sha256.Sum256(append([]byte{tagLeaf}, content[:]...))
}

// AttestLeaf is the leaf attesting that run holds the frame with the
// given content hash, in the leaf form of a record format: Leaf(content)
// in format 0, H(0x00 || len || run || content) in Format.
func AttestLeaf(format int, run string, content Hash) (Hash, error) {
	switch format {
	case 0:
		return Leaf(content), nil
	case Format:
		return named(tagLeaf, run, content[:]), nil
	}
	return Zero, fmt.Errorf("ledger: unknown record format %d", format)
}

// named hashes tag || 4-byte little-endian len(name) || name || rest,
// in a stack buffer that fits any valid run name.
func named(tag byte, name string, rest []byte) Hash {
	var small [320]byte
	buf := binary.LittleEndian.AppendUint32(append(small[:0], tag), uint32(len(name)))
	return sha256.Sum256(append(append(buf, name...), rest...))
}

// node combines two child hashes into their parent.
func node(left, right Hash) Hash {
	buf := make([]byte, 1, 1+2*sha256.Size)
	buf[0] = tagNode
	buf = append(buf, left[:]...)
	buf = append(buf, right[:]...)
	return sha256.Sum256(buf)
}

// Extend chains a batch root onto the previous ledger head.
func Extend(prev, root Hash) Hash {
	buf := make([]byte, 1, 1+2*sha256.Size)
	buf[0] = tagChain
	buf = append(buf, prev[:]...)
	buf = append(buf, root[:]...)
	return sha256.Sum256(buf)
}

// Root computes the Merkle root over leaf hashes. An odd node at any
// level is promoted unchanged (no duplication — duplication admits
// trivial second preimages). Root of an empty record is Zero.
func Root(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return Zero
	}
	level := append([]Hash(nil), leaves...)
	for len(level) > 1 {
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, node(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}

// Step is one hop of an inclusion proof: the sibling hash and which
// side of the running hash it sits on ("L" = sibling is the left
// operand, "R" = the right).
type Step struct {
	Dir     string `json:"dir"`
	Sibling string `json:"hash"`
}

// Prove returns the leaf-to-root sibling path for leaves[idx]. Levels
// where the node is promoted without a sibling contribute no step.
func Prove(leaves []Hash, idx int) ([]Step, error) {
	if idx < 0 || idx >= len(leaves) {
		return nil, fmt.Errorf("ledger: proof index %d out of range [0,%d)", idx, len(leaves))
	}
	var steps []Step
	level := append([]Hash(nil), leaves...)
	for len(level) > 1 {
		sib := idx ^ 1
		if sib < len(level) {
			dir := "R"
			if sib < idx {
				dir = "L"
			}
			steps = append(steps, Step{Dir: dir, Sibling: level[sib].Hex()})
		}
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, node(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
		idx /= 2
	}
	return steps, nil
}

// FoldProof replays an inclusion path from a leaf hash, returning the
// implied batch root.
func FoldProof(leaf Hash, steps []Step) (Hash, error) {
	h := leaf
	for _, st := range steps {
		sib, err := Parse(st.Sibling)
		if err != nil {
			return Zero, err
		}
		switch st.Dir {
		case "L":
			h = node(sib, h)
		case "R":
			h = node(h, sib)
		default:
			return Zero, fmt.Errorf("ledger: bad proof direction %q", st.Dir)
		}
	}
	return h, nil
}

// RepoRoot folds per-spec ledger heads into one repository-wide root.
// Specs are taken in sorted-name order with length-prefixed names, so
// the root is deterministic and unambiguous. An empty repository has
// root Zero.
func RepoRoot(specs []string, heads map[string]Hash) Hash {
	if len(specs) == 0 {
		return Zero
	}
	buf := []byte{tagRepo}
	for _, name := range specs {
		var n [4]byte
		n[0] = byte(len(name))
		n[1] = byte(len(name) >> 8)
		n[2] = byte(len(name) >> 16)
		n[3] = byte(len(name) >> 24)
		buf = append(buf, n[:]...)
		buf = append(buf, name...)
		h := heads[name]
		buf = append(buf, h[:]...)
	}
	return sha256.Sum256(buf)
}

// BatchLeaf names one committed frame inside a batch record: the run
// it belongs to and the hex content hash of its codec frame.
type BatchLeaf struct {
	Run  string `json:"run"`
	Hash string `json:"hash"`
}

// Record is one group commit, or one delete, in a spec's append-only
// ledger log. Seq numbers start at 1 and are contiguous; Prev is the
// head before this record, Head = Extend(Prev, Root) the head after it.
// Runs are attested in order, then Deleted are removed (tombstone
// leaves), and the Merkle leaves follow the same order.
type Record struct {
	Format  int         `json:"v,omitempty"`
	Seq     int64       `json:"seq"`
	Prev    string      `json:"prev"`
	Root    string      `json:"root"`
	Head    string      `json:"head"`
	Runs    []BatchLeaf `json:"runs"`
	Deleted []string    `json:"deleted,omitempty"`
}

// NewRecord assembles and hashes a current-format record that attests
// runs and removes deleted.
func NewRecord(seq int64, prev Hash, runs []BatchLeaf, deleted ...string) (Record, error) {
	rec := Record{Format: Format, Seq: seq, Prev: prev.Hex(), Runs: runs, Deleted: deleted}
	lh, err := rec.LeafHashes()
	if err != nil {
		return Record{}, err
	}
	root := Root(lh)
	rec.Root, rec.Head = root.Hex(), Extend(prev, root).Hex()
	return rec, nil
}

// LeafHashes returns the Merkle leaves of the record, in the leaf form
// of its format.
func (r Record) LeafHashes() ([]Hash, error) {
	out := make([]Hash, 0, len(r.Runs)+len(r.Deleted))
	for _, l := range r.Runs {
		content, err := Parse(l.Hash)
		if err != nil {
			return nil, fmt.Errorf("ledger: run %q: %w", l.Run, err)
		}
		leaf, err := AttestLeaf(r.Format, l.Run, content)
		if err != nil {
			return nil, err
		}
		out = append(out, leaf)
	}
	for _, name := range r.Deleted {
		out = append(out, named(tagTomb, name, nil))
	}
	return out, nil
}

// Check recomputes the record's root and head against the expected
// previous head, reporting the first inconsistency. A passing check
// means the record is internally consistent AND correctly chained.
func (r Record) Check(prev Hash) error {
	if r.Prev != prev.Hex() {
		return fmt.Errorf("ledger: batch %d prev hash %s does not chain onto head %s", r.Seq, r.Prev, prev.Hex())
	}
	lh, err := r.LeafHashes()
	if err != nil {
		return fmt.Errorf("ledger: batch %d: %w", r.Seq, err)
	}
	if got := Root(lh).Hex(); got != r.Root {
		return fmt.Errorf("ledger: batch %d root mismatch: recorded %s, recomputed %s", r.Seq, r.Root, got)
	}
	root, err := Parse(r.Root)
	if err != nil {
		return fmt.Errorf("ledger: batch %d: %w", r.Seq, err)
	}
	if got := Extend(prev, root).Hex(); got != r.Head {
		return fmt.Errorf("ledger: batch %d head mismatch: recorded %s, recomputed %s", r.Seq, r.Head, got)
	}
	return nil
}

// MarshalRecord renders a record as the newline-terminated JSON line
// a ledger log holds, for the store to append through its backend.
// Appending one complete line keeps a crash mid-write down to a torn
// final line, which ParseLog drops.
func MarshalRecord(rec Record) ([]byte, error) {
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// ParseLog parses a spec's ledger log into its records, in order. A
// torn final line (no terminating newline: a crash mid-append) is
// dropped without error. A malformed line that IS newline-terminated
// is returned as an error alongside the records that precede it, so a
// verifier can report the first divergent batch.
func ParseLog(data []byte) ([]Record, error) {
	var recs []Record
	for pos, lineNo := 0, 1; pos < len(data); lineNo++ {
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			// Torn tail: an append that never completed. Not tampering.
			return recs, nil
		}
		line := data[pos : pos+nl]
		pos += nl + 1
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return recs, fmt.Errorf("ledger: record at line %d malformed: %w", lineNo, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// VerifyChain checks seq contiguity, chaining and per-record roots
// across a full log. On failure it returns the 1-based seq of the
// first divergent batch; seq 0 with a nil error means the chain is
// sound.
func VerifyChain(recs []Record) (int64, error) {
	prev := Zero
	for i, rec := range recs {
		if rec.Seq != int64(i)+1 {
			return int64(i) + 1, fmt.Errorf("ledger: batch at position %d has seq %d, want %d", i, rec.Seq, int64(i)+1)
		}
		if err := rec.Check(prev); err != nil {
			return rec.Seq, err
		}
		head, err := Parse(rec.Head)
		if err != nil {
			return rec.Seq, err
		}
		prev = head
	}
	return 0, nil
}
