package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
)

// Backend is the store's entire persistence surface, abstracted to a
// small blob interface so the repository can live on a local directory
// tree or in memory. Keys are slash-separated
// logical paths mirroring the on-disk layout:
//
//	<spec>/spec.xml                     authoritative specification XML
//	<spec>/snapshot/manifest.json       run index: name → frame
//	<spec>/snapshot/runs.seg            append-only run frames
//	<spec>/snapshot/ledger.log          Merkle ledger (JSON lines)
//	<spec>/lineage.json                 lineage link
//	<spec>/live/<run>.events            live-run event journal
//
// Repositories written before runs were stored only as frames also
// hold <spec>/runs/<run>.xml; the upgrade pass at open migrates and
// removes them.
// Older releases also cached binary specification and lineage-mapping
// frames as <spec>/snapshot/*.bin files; the store ignores them.
//
// Contract, shared by every implementation and enforced by the
// conformance suite (internal/store/conformance):
//
//   - WriteFile is atomic: readers observe either the old bytes or the
//     new bytes, never a prefix, also with concurrent writers of the
//     same key. Parent "directories" are implicit.
//   - Durability, for backends that persist at all: WriteFile is
//     durable when it returns (compaction replaces the segment, the
//     only copy of each run, with one WriteFile).
//     Append is durable when it returns only with sync set (the
//     group-commit fsync point); without it a crash may drop a suffix
//     of the appended bytes. Remove is not synced: after a crash a
//     removed key may reappear.
//   - Append appends exactly the given bytes. Appending to a missing
//     key creates it.
//   - A missing key surfaces as an error satisfying
//     errors.Is(err, fs.ErrNotExist) — and os.IsNotExist — from
//     ReadFile, ReadAt, Stat and Remove.
//   - List of a missing directory returns (nil, nil).
//
// Implementations must be safe for concurrent use; the store
// serializes writers per spec but readers run concurrently.
type Backend interface {
	// Kind names the implementation ("fs" or "memory") for stats and
	// diagnostics.
	Kind() string
	ReadFile(key string) ([]byte, error)
	WriteFile(key string, data []byte) error
	Append(key string, data []byte, sync bool) error
	// ReadAt fills p from the blob starting at offset off; short blobs
	// return an error.
	ReadAt(key string, p []byte, off int64) error
	Stat(key string) (BlobInfo, error)
	List(dir string) ([]Entry, error)
	Remove(key string) error
	Close() error
}

// Entry is one name inside a backend "directory".
type Entry struct {
	Name string
	Dir  bool
}

// BlobInfo describes a stored blob.
type BlobInfo struct {
	Size int64
}

// notExist builds the canonical missing-key error: a *fs.PathError
// wrapping fs.ErrNotExist, so errors.Is(err, fs.ErrNotExist) and
// os.IsNotExist both hold — the store and the HTTP error mapper rely
// on exactly that.
func notExist(op, key string) error {
	return &fs.PathError{Op: op, Path: key, Err: fs.ErrNotExist}
}

// isNotExist reports whether a backend error means "no such key" —
// the backend-agnostic twin of os.IsNotExist.
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// ErrDamaged marks a failure to read back what the store itself wrote:
// a run frame, checkpoint or ledger that cannot be read or parsed. It
// is the repository's fault, not the caller's; HTTP callers map it
// onto 500.
var ErrDamaged = errors.New("store: repository damaged")

// damaged tags err with ErrDamaged, keeping its message.
func damaged(err error) error { return damagedError{err} }

type damagedError struct{ err error }

func (e damagedError) Error() string        { return e.err.Error() }
func (e damagedError) Unwrap() error        { return e.err }
func (e damagedError) Is(target error) bool { return target == ErrDamaged }

// truncateTornTail repairs an append-only line log (the ledger, a live
// event journal) read from key: an unterminated final line is debris
// of an append that a crash or a failed write cut short. It is cut off
// and the blob rewritten to the valid prefix, because the next append
// would otherwise weld new bytes onto the fragment and turn it into a
// malformed middle line that a later read must treat as corruption.
// It returns the valid prefix.
func truncateTornTail(be Backend, key string, data []byte) ([]byte, error) {
	valid := bytes.LastIndexByte(data, '\n') + 1
	if valid == len(data) {
		return data, nil
	}
	if err := be.WriteFile(key, data[:valid]); err != nil {
		return nil, err
	}
	return data[:valid], nil
}

// NewBackend constructs a backend by kind name — the -backend flag of
// provserved, and the PROVSTORE_TEST_BACKEND selector of the test
// helpers. dir is the storage root for fs and is ignored for memory.
func NewBackend(kind, dir string) (Backend, error) {
	switch kind {
	case "", "fs":
		return NewFSBackend(dir)
	case "memory":
		return NewMemoryBackend(), nil
	default:
		return nil, fmt.Errorf("store: unknown backend kind %q (want fs or memory)", kind)
	}
}
